//! Declarative goal management: the NM's desired-state store.
//!
//! The original CONMan interface was a one-shot imperative call — map a
//! [`ConnectivityGoal`] to a path and fire scripts.
//! This module gives goals *identity and a lifecycle* instead: a
//! [`GoalStore`] holds every goal the human manager has declared, each with a
//! [`GoalId`] and a [`GoalStatus`], and the runtime's `reconcile()` entry
//! point drives the network toward the store's desired state (push-style
//! ongoing management rather than pull-style one-shots).
//!
//! Planning is separated from execution: a [`Plan`] is a pure dry-run
//! artifact (chosen path + generated scripts + which modules the plan would
//! start using vs. which it shares with already-active goals) that the
//! runtime turns into a two-phase [`Transaction`](crate::runtime::txn)
//! over the management channel.
//!
//! Concurrent goals share module instances: the store tracks which goals use
//! which modules, so `withdraw` only releases a module once no surviving
//! goal's applied plan traverses it.

use super::pathfinder::PathFinderLimits;
use super::script::{ScriptSet, StagedScripts};
use super::{ConnectivityGoal, ModulePath};
use crate::ids::ModuleRef;
use crate::primitives::Refusal;
use netsim::device::DeviceId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Stable identity of a stored goal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GoalId(pub u64);

impl fmt::Display for GoalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G{}", self.0)
    }
}

/// Something a goal's planner must route around, as recorded from
/// diagnosis.
///
/// The original self-healing story could only avoid *modules*; a diagnosis
/// that blamed a link (cut, loss spike) never reached the path search, so
/// the re-plan would happily cross the dead link again.  Typing the
/// exclusion lets the traversal prune both: an excluded module is never
/// entered, and an excluded link's physical pipes are never crossed — so on
/// multipath topologies a blamed core link is rerouted around in one pass.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Exclusion {
    /// Avoid a specific module.
    Module(ModuleRef),
    /// Avoid every physical pipe between the two (adjacent) devices,
    /// whichever direction the path would cross it.  Stored with the
    /// smaller device id first — build it through [`Exclusion::link`] so
    /// `(a, b)` and `(b, a)` compare equal.
    Link(DeviceId, DeviceId),
}

impl Exclusion {
    /// A link exclusion, normalised so the endpoint order never matters.
    pub fn link(a: DeviceId, b: DeviceId) -> Self {
        if a <= b {
            Exclusion::Link(a, b)
        } else {
            Exclusion::Link(b, a)
        }
    }
}

/// Where a goal is in its lifecycle; defined beside the journal that
/// records it.
pub use conman_obs::GoalStatus;

/// The configuration a goal currently has on the network: the executed
/// path, the scripts that realised it as the NM staged them, and the
/// pipe-id block they were numbered in.
///
/// A plan's typed scripts die inside its batch's strict runner, after the
/// stage phase and before the commit wave (`reconcile()`, the per-goal
/// oracle and `execute_plan` alike): the runner keeps each goal's scripts
/// as the bytes it staged, and the replace step adopts those as the
/// goal's applied form.  From then on the commit's rollback, the goal's
/// teardown, `audit()`'s claims and a restore after a failed replace all
/// read the staged bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct AppliedPlan {
    /// The module-level path that was executed.
    pub path: ModulePath,
    /// The per-device segments that were staged and committed.
    pub scripts: StagedScripts,
    /// First pipe id of the block allocated to this execution (every goal
    /// gets a disjoint block so concurrent goals never collide on pipe ids,
    /// blackboard facts or derived table ids).
    pub pipe_base: u32,
}

/// One stored goal.
#[derive(Debug, Clone)]
pub struct GoalRecord {
    /// The goal's identity.
    pub id: GoalId,
    /// What the manager wants.
    pub desired: ConnectivityGoal,
    /// Lifecycle status.
    pub status: GoalStatus,
    /// What is currently configured for this goal (None when nothing is),
    /// remembered by the bytes the NM staged.
    /// Private so every mutation goes through [`GoalStore::set_applied`] /
    /// [`GoalStore::take_applied`] and the incremental module-usage index
    /// cannot silently go stale; read via [`GoalRecord::applied`].
    applied: Option<AppliedPlan>,
    /// Modules and links the planner must avoid for this goal (diagnosed
    /// suspects).  Cleared once a repair verifies, so a transiently blamed
    /// component is not avoided forever.
    pub excluded: BTreeSet<Exclusion>,
    /// Why the goal last failed, until it converges again.
    pub last_error: Option<GoalFailure>,
    /// Consecutive repair attempts that failed (execution rolled back or
    /// the verification probe found no traffic) since the goal last
    /// converged.  Reset to zero when the goal becomes `Active`, on
    /// `update` and on `retry`.  When it reaches
    /// [`GoalStore::MAX_REPAIR_ATTEMPTS`] the reconciler parks the goal
    /// `Failed` instead of cycling `Pending`/`Degraded` → `Repairing`
    /// forever (its pipe block is released with the pass as usual).
    pub repair_attempts: u32,
}

impl GoalRecord {
    /// What is currently configured for this goal (None when nothing is).
    pub fn applied(&self) -> Option<&AppliedPlan> {
        self.applied.as_ref()
    }
}

/// A pure dry-run planning artifact: what executing the goal *would* do.
///
/// Produced by `ManagedNetwork::plan_goal` without sending a single
/// management message; executing it is a separate, explicit step.  It
/// keeps its typed scripts until its batch has staged them; the replace
/// step then records its path and pipe block, beside the staged bytes,
/// as an [`AppliedPlan`].
#[derive(Debug, Clone)]
pub struct Plan {
    /// The goal this plan realises.
    pub goal: GoalId,
    /// The chosen module-level path.
    pub path: ModulePath,
    /// The per-device scripts that would be staged and committed.
    pub scripts: ScriptSet,
    /// The pipe-id block the scripts are numbered in.
    pub pipe_base: u32,
    /// Modules no other active goal uses: executing the plan takes their
    /// first reference.
    pub modules_created: Vec<ModuleRef>,
    /// Modules already used by other goals' applied plans: executing the
    /// plan shares them (their reference count grows).
    pub modules_reused: Vec<ModuleRef>,
}

/// Why planning failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The goal id is not in the store.
    UnknownGoal(GoalId),
    /// No module-level path satisfies the goal (after exclusions).
    NoPath,
    /// The pipe-id allocator cannot hand out a disjoint block of the
    /// required size without exceeding [`GoalStore::MAX_PIPE_ID`] — beyond
    /// it the identifier spaces *derived* from pipe ids (per-(pipe, role)
    /// route-table and policy-priority ids) would wrap or collide.  The
    /// plan is refused cleanly instead of corrupting live goals.
    PipeSpaceExhausted {
        /// Pipe-id slots the plan needs.
        needed: u32,
        /// Slots left below the cap.
        remaining: u32,
    },
    /// The chosen path needs a class or gateway the goal names but never
    /// resolves to a value (a missing entry of
    /// [`ConnectivityGoal::resolved`](crate::nm::ConnectivityGoal::resolved)).
    Unresolved(String),
}

/// Why a goal is not `Active`.  Whether it gave up is its status, and after
/// how many attempts its [`GoalRecord::repair_attempts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GoalFailure {
    /// A device refused the goal's transaction, or did not answer it.
    Refused(Box<Refusal>),
    /// Planning failed.
    Plan(PlanError),
    /// The transaction committed but the verification probe failed.
    ProbeFailed,
    /// A health round delivered too few of the goal's probes.
    Unhealthy {
        /// Probes sent.
        sent: u64,
        /// Probes the destination received.
        delivered: u64,
    },
}

/// The NM's desired-state store: every declared goal, its status, and the
/// shared-module bookkeeping.
#[derive(Debug, Default)]
pub struct GoalStore {
    goals: BTreeMap<GoalId, GoalRecord>,
    next_goal: u64,
    next_txn: u64,
    next_pipe: u32,
    /// The module → using-goals index, maintained incrementally by
    /// [`Self::set_applied`] / [`Self::take_applied`] / [`Self::remove`] so
    /// plan classification and withdraw refcounts are O(path) instead of
    /// rescanning every applied plan (O(goals²) across a reconcile pass).
    module_index: BTreeMap<ModuleRef, BTreeSet<GoalId>>,
    /// Path-search limits used when planning (long chains need a larger
    /// step budget and a smaller path budget than the defaults).
    pub limits: PathFinderLimits,
}

impl GoalStore {
    /// How many consecutive failed repair attempts park a goal `Failed`
    /// (see [`GoalRecord::repair_attempts`]): enough for transient races (a
    /// fault landing mid-pass converges on the next tick) without letting a
    /// goal whose every candidate path is dead thrash the network
    /// indefinitely.
    pub const MAX_REPAIR_ATTEMPTS: u32 = 3;

    /// An empty store.
    pub fn new() -> Self {
        GoalStore::default()
    }

    /// Declare a goal; it starts `Pending` and is applied by the next
    /// `reconcile()`.
    pub fn submit(&mut self, desired: ConnectivityGoal) -> GoalId {
        self.next_goal += 1;
        let id = GoalId(self.next_goal);
        self.goals.insert(
            id,
            GoalRecord {
                id,
                desired,
                status: GoalStatus::Pending,
                applied: None,
                excluded: BTreeSet::new(),
                last_error: None,
                repair_attempts: 0,
            },
        );
        id
    }

    /// Replace a goal's desired state.  The goal returns to `Pending`; the
    /// next `reconcile()` tears down the stale configuration and applies the
    /// new one.  Returns false for an unknown id.
    pub fn update(&mut self, id: GoalId, desired: ConnectivityGoal) -> bool {
        match self.goals.get_mut(&id) {
            Some(rec) => {
                rec.desired = desired;
                rec.status = GoalStatus::Pending;
                rec.last_error = None;
                rec.repair_attempts = 0;
                true
            }
            None => false,
        }
    }

    /// Remove a goal record (the runtime's `withdraw` tears the applied
    /// configuration down first).  Returns the removed record.
    pub fn remove(&mut self, id: GoalId) -> Option<GoalRecord> {
        let rec = self.goals.remove(&id);
        if let Some(rec) = &rec {
            if let Some(applied) = &rec.applied {
                Self::unindex(&mut self.module_index, id, applied);
            }
        }
        rec
    }

    /// Replace a goal's applied plan, keeping the module-usage index in
    /// sync.  Returns the previous applied plan.  This is the **only** way
    /// applied plans should change (see [`GoalRecord::applied`]).
    pub(crate) fn set_applied(
        &mut self,
        id: GoalId,
        applied: Option<AppliedPlan>,
    ) -> Option<AppliedPlan> {
        let rec = self.goals.get_mut(&id)?;
        let previous = std::mem::replace(&mut rec.applied, applied);
        if let Some(prev) = &previous {
            Self::unindex(&mut self.module_index, id, prev);
        }
        if let Some(now) = &rec.applied {
            for step in &now.path.steps {
                self.module_index.entry(step.module).or_default().insert(id);
            }
        }
        previous
    }

    /// Clear a goal's applied plan (index-maintaining), returning it.
    pub fn take_applied(&mut self, id: GoalId) -> Option<AppliedPlan> {
        self.set_applied(id, None)
    }

    fn unindex(
        index: &mut BTreeMap<ModuleRef, BTreeSet<GoalId>>,
        id: GoalId,
        applied: &AppliedPlan,
    ) {
        for step in &applied.path.steps {
            if let Some(users) = index.get_mut(&step.module) {
                users.remove(&id);
                if users.is_empty() {
                    index.remove(&step.module);
                }
            }
        }
    }

    /// A stored goal.
    pub fn get(&self, id: GoalId) -> Option<&GoalRecord> {
        self.goals.get(&id)
    }

    /// A stored goal, mutably.
    pub fn get_mut(&mut self, id: GoalId) -> Option<&mut GoalRecord> {
        self.goals.get_mut(&id)
    }

    /// All goal ids, in submission order.
    pub fn ids(&self) -> Vec<GoalId> {
        self.goals.keys().copied().collect()
    }

    /// All goal records.
    pub fn iter(&self) -> impl Iterator<Item = &GoalRecord> {
        self.goals.values()
    }

    /// Number of stored goals.
    pub fn len(&self) -> usize {
        self.goals.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.goals.is_empty()
    }

    /// The status of a goal.
    pub fn status(&self, id: GoalId) -> Option<GoalStatus> {
        self.goals.get(&id).map(|r| r.status)
    }

    /// Mark a goal degraded (e.g. after a failed probe or a diagnosis),
    /// recording the modules and links its next plan must avoid.  Returns
    /// false for an unknown id.
    pub fn mark_degraded(&mut self, id: GoalId, excluded: BTreeSet<Exclusion>) -> bool {
        match self.goals.get_mut(&id) {
            Some(rec) => {
                rec.status = GoalStatus::Degraded;
                rec.excluded = excluded;
                true
            }
            None => false,
        }
    }

    /// Clear a goal's `Failed` status (back to `Pending`) so `reconcile()`
    /// retries it.
    pub fn retry(&mut self, id: GoalId) -> bool {
        match self.goals.get_mut(&id) {
            Some(rec) if rec.status == GoalStatus::Failed => {
                rec.status = GoalStatus::Pending;
                rec.last_error = None;
                rec.repair_attempts = 0;
                true
            }
            _ => false,
        }
    }

    /// Charge one failed repair attempt, for `failure`, against `id`'s
    /// budget: the goal goes back to `retry` for another pass, or parks
    /// `Failed` once the budget is exhausted.  Returns the status it took.
    pub(crate) fn charge_repair_attempt(
        &mut self,
        id: GoalId,
        failure: GoalFailure,
        retry: GoalStatus,
    ) -> GoalStatus {
        let rec = self.goals.get_mut(&id).expect("a charged goal is stored");
        rec.repair_attempts += 1;
        let exhausted = rec.repair_attempts >= Self::MAX_REPAIR_ATTEMPTS;
        rec.status = if exhausted { GoalStatus::Failed } else { retry };
        rec.last_error = Some(failure);
        rec.status
    }

    /// Allocate a fresh transaction id.
    pub(crate) fn next_txn(&mut self) -> u64 {
        self.next_txn += 1;
        self.next_txn
    }

    /// The first pipe id no block reaches: a block ends at or below it, so
    /// the last id the NM ever allocates is `MAX_PIPE_ID - 1`.  Derived
    /// identifier schemes are injective in (pipe, role) with role < 4 —
    /// route tables are `1000 + 4·pipe + role` and policy-rule priorities
    /// `100 + 4·pipe + role` (see the IP module) — so pipe ids must stay
    /// below this cap for those u32 spaces not to wrap.
    pub const MAX_PIPE_ID: u32 = (u32::MAX - 1000) / 4 - 1;

    /// Can a disjoint block of `slots` pipe ids still be allocated without
    /// crossing [`Self::MAX_PIPE_ID`]?  Planning calls this before handing
    /// out a block so exhaustion surfaces as a clean
    /// [`PlanError::PipeSpaceExhausted`] instead of wrapped derived ids
    /// silently colliding with live goals.
    pub fn check_pipe_block(&self, slots: u32) -> Result<(), PlanError> {
        Self::check_block(self.next_pipe, slots)
    }

    /// Does the block of `slots` pipe ids from `base` stay below
    /// [`Self::MAX_PIPE_ID`]?  The one definition of "in budget", shared
    /// by the allocator and the plan checks.
    pub(crate) fn check_block(base: u32, slots: u32) -> Result<(), PlanError> {
        let remaining = Self::MAX_PIPE_ID.saturating_sub(base);
        if slots > remaining {
            return Err(PlanError::PipeSpaceExhausted {
                needed: slots,
                remaining,
            });
        }
        Ok(())
    }

    /// The pipe-id base the next plan will be numbered from (dry-run
    /// planning peeks; execution consumes via [`Self::take_pipe_block`]).
    pub fn peek_pipe_base(&self) -> u32 {
        self.next_pipe
    }

    /// Reserve a block of `slots` pipe ids, returning its base.
    pub fn take_pipe_block(&mut self, slots: u32) -> u32 {
        let base = self.next_pipe;
        self.next_pipe = self.next_pipe.saturating_add(slots);
        base
    }

    /// Roll the allocator back to `watermark` if it currently sits above
    /// it.  The batched reconcile pass allocates one block per planned goal
    /// up front and then releases the tail blocks of goals whose execution
    /// failed (mirroring the per-goal executor, which only consumes a block
    /// on commit) — otherwise a repeatedly failing goal would march the
    /// allocator toward [`Self::MAX_PIPE_ID`].  Callers must pass a
    /// watermark at or above every block still in use.
    pub(crate) fn release_pipes_to(&mut self, watermark: u32) {
        self.next_pipe = self.next_pipe.min(watermark);
    }

    /// Which goals' applied plans traverse each module — the reference
    /// counts behind shared-module withdraw semantics.  Served from the
    /// incrementally maintained index (no per-call rescan of applied
    /// plans).
    pub fn module_users(&self) -> &BTreeMap<ModuleRef, BTreeSet<GoalId>> {
        &self.module_index
    }

    /// Number of goals whose applied plans traverse `module`.
    pub fn module_refcount(&self, module: &ModuleRef) -> usize {
        self.module_index.get(module).map_or(0, |s| s.len())
    }

    /// Split `path`'s modules into (first-use, shared) relative to every
    /// *other* goal's applied plan — the "will be created vs. reused"
    /// report of a dry-run [`Plan`].
    pub(crate) fn classify_modules(
        &self,
        id: GoalId,
        path: &ModulePath,
    ) -> (Vec<ModuleRef>, Vec<ModuleRef>) {
        let mut created = Vec::new();
        let mut reused = Vec::new();
        let mut seen = BTreeSet::new();
        for step in &path.steps {
            if !seen.insert(step.module) {
                continue;
            }
            let shared = self
                .module_index
                .get(&step.module)
                .is_some_and(|goals| goals.iter().any(|g| *g != id));
            if shared {
                reused.push(step.module);
            } else {
                created.push(step.module);
            }
        }
        (created, reused)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::SwitchKind;
    use crate::ids::{ModuleId, ModuleKind};
    use crate::nm::pathfinder::{Entry, PathStep};
    use netsim::device::DeviceId;

    fn goal() -> ConnectivityGoal {
        ConnectivityGoal::vpn(
            ModuleRef::new(ModuleKind::Eth, ModuleId(1), DeviceId::from_raw(1)),
            ModuleRef::new(ModuleKind::Eth, ModuleId(1), DeviceId::from_raw(2)),
        )
    }

    fn path_over(modules: &[(u64, u32)]) -> ModulePath {
        ModulePath {
            steps: modules
                .iter()
                .map(|(d, m)| PathStep {
                    module: ModuleRef::new(ModuleKind::Ip, ModuleId(*m), DeviceId::from_raw(*d)),
                    switch: SwitchKind::DownUp,
                    entered: Entry::Below,
                    header: 0,
                    depth: 1,
                })
                .collect(),
        }
    }

    #[test]
    fn lifecycle_and_ids() {
        let mut store = GoalStore::new();
        let a = store.submit(goal());
        let b = store.submit(goal());
        assert_ne!(a, b);
        assert_eq!(store.status(a), Some(GoalStatus::Pending));
        assert!(store.update(a, goal()));
        assert!(store.mark_degraded(b, BTreeSet::new()));
        assert_eq!(store.status(b), Some(GoalStatus::Degraded));
        assert!(store.status(b).unwrap().needs_work());
        store.get_mut(b).unwrap().status = GoalStatus::Failed;
        assert!(!store.status(b).unwrap().needs_work());
        assert!(store.retry(b));
        assert_eq!(store.status(b), Some(GoalStatus::Pending));
        assert!(store.remove(a).is_some());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn link_exclusions_are_direction_agnostic() {
        let a = DeviceId::from_raw(3);
        let b = DeviceId::from_raw(7);
        assert_eq!(Exclusion::link(a, b), Exclusion::link(b, a));
        let mut set = BTreeSet::new();
        set.insert(Exclusion::link(b, a));
        assert!(set.contains(&Exclusion::link(a, b)));
        // Module and link exclusions coexist in one typed set.
        set.insert(Exclusion::Module(ModuleRef::new(
            ModuleKind::Gre,
            ModuleId(1),
            a,
        )));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn pipe_blocks_are_disjoint() {
        let mut store = GoalStore::new();
        assert_eq!(store.take_pipe_block(10), 0);
        assert_eq!(store.peek_pipe_base(), 10);
        assert_eq!(store.take_pipe_block(5), 10);
        assert_eq!(store.take_pipe_block(85), 15);
        assert_eq!(store.take_pipe_block(1), 100);
    }

    #[test]
    fn pipe_space_exhaustion_is_a_clean_plan_error() {
        let mut store = GoalStore::new();
        // A 512-goal pass on a long chain stays far below the cap...
        store.take_pipe_block(512 * 32);
        assert!(store.check_pipe_block(32).is_ok());
        // ...but near the derived-id cap the allocator refuses cleanly
        // instead of letting route-table / priority ids wrap.
        store.take_pipe_block(GoalStore::MAX_PIPE_ID - 5 - store.peek_pipe_base());
        assert!(store.check_pipe_block(5).is_ok());
        match store.check_pipe_block(13) {
            Err(PlanError::PipeSpaceExhausted { needed, remaining }) => {
                assert_eq!(needed, 13);
                assert_eq!(remaining, 5);
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
        // The boundary: the five slots admitted above end the block at
        // MAX − 1; a sixth would reach the cap itself.
        assert!(store.check_pipe_block(6).is_err());
        // The derived route-table scheme (1000 + 4·pipe + role, role < 4)
        // cannot wrap below the cap.
        assert!(1000u64 + 4 * GoalStore::MAX_PIPE_ID as u64 + 3 <= u32::MAX as u64);
    }

    #[test]
    fn refcounts_follow_applied_plans() {
        let mut store = GoalStore::new();
        let a = store.submit(goal());
        let b = store.submit(goal());
        let shared = path_over(&[(1, 1), (2, 1)]);
        let private = path_over(&[(1, 1), (3, 7)]);
        store.set_applied(
            a,
            Some(AppliedPlan {
                path: shared.clone(),
                scripts: StagedScripts::from(&ScriptSet::default()),
                pipe_base: 0,
            }),
        );
        // Before B applies anything, its plan over (1,1)+(3,7) reuses (1,1).
        let (created, reused) = store.classify_modules(b, &private);
        assert_eq!(reused.len(), 1);
        assert_eq!(created.len(), 1);
        store.set_applied(
            b,
            Some(AppliedPlan {
                path: private,
                scripts: StagedScripts::from(&ScriptSet::default()),
                pipe_base: 10,
            }),
        );
        let m = ModuleRef::new(ModuleKind::Ip, ModuleId(1), DeviceId::from_raw(1));
        assert_eq!(store.module_refcount(&m), 2);
        store.set_applied(a, None);
        assert_eq!(store.module_refcount(&m), 1);
    }

    #[test]
    fn module_index_follows_set_take_and_remove() {
        let mut store = GoalStore::new();
        let a = store.submit(goal());
        let b = store.submit(goal());
        let path_a = path_over(&[(1, 1), (2, 1)]);
        let path_b = path_over(&[(2, 1), (3, 1)]);
        let plan = |path: &ModulePath, base: u32| AppliedPlan {
            path: path.clone(),
            scripts: StagedScripts::from(&ScriptSet::default()),
            pipe_base: base,
        };
        store.set_applied(a, Some(plan(&path_a, 0)));
        store.set_applied(b, Some(plan(&path_b, 10)));
        let shared = ModuleRef::new(ModuleKind::Ip, ModuleId(1), DeviceId::from_raw(2));
        assert_eq!(store.module_refcount(&shared), 2);
        // Replacing A's plan with one avoiding the shared module drops A's
        // reference but keeps B's.
        let replacement = path_over(&[(1, 1), (4, 1)]);
        let previous = store.set_applied(a, Some(plan(&replacement, 20)));
        assert_eq!(previous.unwrap().pipe_base, 0);
        assert_eq!(store.module_refcount(&shared), 1);
        // take_applied and remove both release references.
        assert!(store.take_applied(b).is_some());
        assert_eq!(store.module_refcount(&shared), 0);
        store.set_applied(a, Some(plan(&path_a, 30)));
        assert_eq!(store.module_refcount(&shared), 1);
        store.remove(a);
        assert_eq!(store.module_refcount(&shared), 0);
        assert!(store.module_users().is_empty());
    }
}

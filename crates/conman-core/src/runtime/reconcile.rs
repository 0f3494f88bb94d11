//! The declarative management loop: drive every stored goal toward its
//! desired state.
//!
//! `submit` / `update` / `withdraw` manipulate the NM's [`GoalStore`];
//! [`ManagedNetwork::reconcile`] is the single entry point that makes the
//! network match it — planning every goal that needs work first (pure
//! dry-run [`Plan`]s in disjoint pipe-id blocks), then executing them all
//! as **one batched two-phase transaction** (each device staged once and
//! committed once per pass, per-goal atomicity preserved inside the
//! batch), and optionally verifying with per-goal probes.  It is also the
//! system's **only repair engine**: a heal — an operator's or the control
//! loop's — is `goals.mark_degraded(id, suspects)` followed by
//! [`ManagedNetwork::reconcile_with`].  Candidate ranking
//! (`NetworkManager::choose_path`), the reinstall-through fallback when
//! nothing avoids the suspects, verification, exclusion ageing, the
//! best-effort restore and the repair-attempt budget are decided here and
//! nowhere else.
//!
//! [`ManagedNetwork::reconcile_per_goal`] drives the same transaction
//! runner one goal at a time (a batch of one per goal).  It stays as the
//! reference implementation `tests/goals.rs` compares the batched pass
//! against.
//!
//! Planning inside the batched pass runs **in parallel**: path search is a
//! pure read of the goal store and the potential graph, and pipe-id blocks
//! are disjoint by construction, so the per-goal searches fan out across a
//! small `std::thread::scope` worker pool and the chosen paths are merged
//! back into the batch in deterministic goal-id order.  Everything with a
//! side effect — pipe-block allocation, journal events, store mutation —
//! happens in the merge, on the calling thread, so journals, transcripts
//! and reports are byte-identical to the sequential engine.
//! [`ManagedNetwork::reconcile_sequential`] keeps that sequential engine
//! (per-goal graph rebuild and fresh search state, exactly the pre-PR-10
//! planning loop) as the reference implementation `tests/raw_speed.rs`
//! compares against.

use super::txn::GoalTeardown;
use super::ManagedNetwork;
use crate::ids::ModuleRef;
use crate::nm::goal::{AppliedPlan, GoalFailure, GoalId, GoalStatus, Plan, PlanError};
use crate::nm::{
    script, ConnectivityGoal, GoalStore, ModulePath, NetworkManager, PotentialGraph, SearchScratch,
};
use crate::primitives::Primitive;
use conman_obs::TraceKind;
use mgmt_channel::ManagementChannel;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// What `reconcile()` did for one goal; defined beside the journal that
/// records it.
pub use conman_obs::ReconcileAction;

/// Per-goal reconcile result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReconcileOutcome {
    /// The goal.
    pub goal: GoalId,
    /// What happened.
    pub action: ReconcileAction,
    /// The goal's status after the pass.
    pub status: GoalStatus,
    /// Why, for the failed actions and a goal left `Failed`.
    pub error: Option<GoalFailure>,
}

/// The result of one reconcile pass.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ReconcileReport {
    /// One outcome per stored goal, in id order.
    pub outcomes: Vec<ReconcileOutcome>,
    /// Transactions executed during the pass (0 on a converged network —
    /// reconcile is idempotent).  A batched pass counts one transaction for
    /// the whole batch, one for the pass's coalesced stale-configuration
    /// teardowns (all replaced goals share a single batched lenient
    /// teardown), and one per best-effort restore.
    pub transactions: usize,
    /// Management messages the NM sent during this pass (counter delta
    /// around the call, so callers no longer diff `nm_counters()`
    /// themselves).
    pub nm_sent: u64,
    /// Management messages the NM received during this pass.
    pub nm_received: u64,
}

impl ReconcileReport {
    /// Goals whose status is `Active` after the pass.
    pub fn active(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.status == GoalStatus::Active)
            .count()
    }

    /// Did the pass leave every goal `Active`?
    pub fn converged(&self) -> bool {
        self.outcomes.iter().all(|o| o.status == GoalStatus::Active)
    }

    /// The outcome for one goal.
    pub fn outcome(&self, id: GoalId) -> Option<&ReconcileOutcome> {
        self.outcomes.iter().find(|o| o.goal == id)
    }
}

/// What `withdraw` did.
#[derive(Debug, Clone, Default)]
pub struct WithdrawOutcome {
    /// Was the goal found (and removed)?
    pub removed: bool,
    /// Delete primitives committed while tearing the goal down.
    pub teardown_primitives: usize,
    /// Modules whose last reference this withdraw released — no surviving
    /// goal uses them any more.  Modules still referenced by other goals'
    /// applied plans are *not* touched (shared-module semantics).
    pub released: Vec<ModuleRef>,
}

/// A planning worker's verdict for one goal: the chosen path plus whether
/// the suspect-fallback (re-search with the exclusions dropped) produced
/// it — the merge must clear the goal's exclusions in that case, exactly
/// like the sequential `plan_goal_or_reinstall`.
type PathChoice = Result<(ModulePath, bool), PlanError>;

/// Everything the path search reads from a goal record: the endpoint
/// modules, the layer-2 flag, the traffic domain (domain pruning) and the
/// exclusion set.  Two goals with equal keys get byte-identical search
/// results, so each planning worker memoises its searches under this key —
/// a fleet of same-shaped goals (the common case: many VPNs between the
/// same edge interfaces) costs one traversal instead of one per goal.
type SearchKey = (
    ModuleRef,
    ModuleRef,
    bool,
    String,
    BTreeSet<crate::nm::goal::Exclusion>,
);

/// [`choose_goal_path`] behind a per-worker memo.  Correct because the
/// search is a pure function of the key (see [`SearchKey`]), the hoisted
/// graph and the store-wide limits — all constant within one pass.
fn choose_goal_path_memo(
    nm: &NetworkManager,
    goals: &GoalStore,
    graph: &PotentialGraph,
    id: GoalId,
    scratch: &mut SearchScratch,
    memo: &mut BTreeMap<SearchKey, PathChoice>,
) -> PathChoice {
    let Some(rec) = goals.get(id) else {
        return Err(PlanError::UnknownGoal(id));
    };
    let key = (
        rec.desired.from.clone(),
        rec.desired.to.clone(),
        rec.desired.l2_only,
        rec.desired.traffic_domain.clone(),
        rec.excluded.clone(),
    );
    if let Some(hit) = memo.get(&key) {
        return hit.clone();
    }
    let choice = choose_goal_path(nm, goals, graph, id, scratch);
    memo.insert(key, choice.clone());
    choice
}

/// The read-only half of planning one goal: enumerate paths avoiding the
/// goal's exclusions, fall back to a search straight through the suspects
/// when nothing avoids them, and pick the best candidate.  Runs on the
/// planning workers, so it touches nothing mutable — the store-side
/// effects of a fallback happen later, in the merge, in goal-id order.
fn choose_goal_path(
    nm: &NetworkManager,
    goals: &GoalStore,
    graph: &PotentialGraph,
    id: GoalId,
    scratch: &mut SearchScratch,
) -> PathChoice {
    let rec = goals.get(id).ok_or(PlanError::UnknownGoal(id))?;
    let paths =
        nm.find_paths_avoiding_in(graph, &rec.desired, &rec.excluded, goals.limits, scratch);
    if let Some(path) = nm.choose_path(&paths) {
        return Ok((path.clone(), false));
    }
    if !rec.excluded.is_empty() {
        let paths =
            nm.find_paths_avoiding_in(graph, &rec.desired, &BTreeSet::new(), goals.limits, scratch);
        if let Some(path) = nm.choose_path(&paths) {
            return Ok((path.clone(), true));
        }
    }
    Err(PlanError::NoPath)
}

impl<C: ManagementChannel> ManagedNetwork<C> {
    /// Declare a goal.  It is applied by the next [`Self::reconcile`].
    pub fn submit(&mut self, goal: ConnectivityGoal) -> GoalId {
        self.goals.submit(goal)
    }

    /// Replace a goal's desired state; the next reconcile tears down the
    /// stale configuration and applies the new one.
    pub fn update_goal(&mut self, id: GoalId, goal: ConnectivityGoal) -> bool {
        self.goals.update(id, goal)
    }

    /// Dry-run planning: choose the best path for the goal (avoiding its
    /// excluded modules) and generate — but do not send — its scripts.
    pub fn plan_goal(&self, id: GoalId) -> Result<Plan, PlanError> {
        let rec = self.goals.get(id).ok_or(PlanError::UnknownGoal(id))?;
        let graph = self.nm.build_graph();
        let mut scratch = SearchScratch::default();
        let (goal, excluded, limits) = (&rec.desired, &rec.excluded, self.goals.limits);
        let paths = self
            .nm
            .find_paths_avoiding_in(&graph, goal, excluded, limits, &mut scratch);
        let path = self
            .nm
            .choose_path(&paths)
            .cloned()
            .ok_or(PlanError::NoPath)?;
        self.plan_for_path(id, &path)
    }

    /// [`Self::plan_goal`], with the reconciler's suspect-fallback: when no
    /// path avoids the goal's exclusions — diagnosis blamed an *edge*
    /// module every path must traverse, or (on a chain) a *link* with no
    /// physical alternative — the exclusions are dropped and the goal
    /// re-planned straight through the suspects.  Lost configuration state
    /// (flushed tables, wiped label maps) is repaired by *reconfiguring*
    /// the blamed module; a transient link fault heals on a later pass once
    /// the link returns.  If the component is genuinely dead the
    /// verification probe fails the reinstall and the repair-attempt budget
    /// parks the goal `Failed` instead of thrashing.  Blamed links and
    /// blamed edge modules are handled symmetrically: both fall back to
    /// reinstall-through rather than an instant `PlanFailed`.
    fn plan_goal_or_reinstall(&mut self, id: GoalId) -> Result<Plan, PlanError> {
        match self.plan_goal(id) {
            Err(PlanError::NoPath)
                if self.goals.get(id).is_some_and(|r| !r.excluded.is_empty()) =>
            {
                self.goals
                    .get_mut(id)
                    .expect("goal exists")
                    .excluded
                    .clear();
                self.plan_goal(id)
            }
            other => other,
        }
    }

    /// Dry-run planning for an explicit path — how an operator forces a
    /// technology (`submit` + `plan_for_path` + [`Self::execute_plan`])
    /// instead of taking the NM's choice.
    ///
    /// The scripts are numbered from the store's next free pipe block; the
    /// block is only consumed when the plan is executed.  Fails cleanly
    /// with [`PlanError::PipeSpaceExhausted`] when the block would cross
    /// the derived-identifier cap, and with [`PlanError::Unresolved`] when a
    /// switch rule names a class or gateway the goal does not resolve.
    pub fn plan_for_path(&self, id: GoalId, path: &ModulePath) -> Result<Plan, PlanError> {
        let rec = self.goals.get(id).ok_or(PlanError::UnknownGoal(id))?;
        self.goals.check_pipe_block(script::slot_count(path))?;
        let pipe_base = self.goals.peek_pipe_base();
        let scripts = script::generate_with_base(&self.nm, path, &rec.desired, pipe_base);
        let mut primitives = scripts.scripts.iter().flat_map(|s| &s.primitives);
        let unresolved = primitives.find_map(|p| match p {
            Primitive::CreateSwitch(s) => [&s.dst_class, &s.gateway]
                .into_iter()
                .flatten()
                .find(|n| !rec.desired.resolved.contains_key(&n.name)),
            _ => None,
        });
        if let Some(n) = unresolved {
            return Err(PlanError::Unresolved(n.name.clone()));
        }
        let (modules_created, modules_reused) = self.goals.classify_modules(id, path);
        Ok(Plan {
            goal: id,
            path: path.clone(),
            scripts,
            pipe_base,
            modules_created,
            modules_reused,
        })
    }

    /// Execute a plan as a two-phase transaction (a batch of one).  On
    /// commit the goal becomes `Active` and the plan is recorded as applied
    /// (module references included); on failure everything the transaction
    /// touched has been rolled back, the goal keeps its previous applied
    /// state (none) and the returned error is also its `last_error`.
    pub fn execute_plan(&mut self, mut plan: Plan) -> Result<(), GoalFailure> {
        let mut result = Ok(());
        // The block may have moved since the dry run (another goal executed
        // in between): renumber onto the current base.
        if plan.pipe_base != self.goals.peek_pipe_base() {
            match self.goals.check_pipe_block(script::slot_count(&plan.path)) {
                // Renumbering would cross the derived-id cap: fail the
                // execution cleanly instead of wrapping.
                Err(e) => result = Err(GoalFailure::Plan(e)),
                Ok(()) => {
                    let rec = self.goals.get(plan.goal).expect("goal exists");
                    plan.pipe_base = self.goals.peek_pipe_base();
                    plan.scripts = script::generate_with_base(
                        &self.nm,
                        &plan.path,
                        &rec.desired,
                        plan.pipe_base,
                    );
                }
            }
        }
        if result.is_ok() {
            let batch = self.run_batch(&[(plan.goal, &plan.scripts)]);
            if let Some(refusal) = batch.error_for(plan.goal) {
                result = Err(GoalFailure::Refused(Box::new(refusal.clone())));
            }
        }
        if let Err(error) = &result {
            if let Some(rec) = self.goals.get_mut(plan.goal) {
                rec.last_error = Some(error.clone());
            }
            return result;
        }
        self.goals.take_pipe_block(script::slot_count(&plan.path));
        self.goals.set_applied(
            plan.goal,
            Some(AppliedPlan {
                path: plan.path,
                scripts: plan.scripts,
                pipe_base: plan.pipe_base,
            }),
        );
        if let Some(rec) = self.goals.get_mut(plan.goal) {
            rec.status = GoalStatus::Active;
            rec.last_error = None;
        }
        Ok(())
    }

    /// Withdraw a goal: tear its configuration down (sharing-aware — the
    /// components are per-goal, and module instances survive while any
    /// other goal's applied plan still traverses them) and remove it from
    /// the store.
    pub fn withdraw(&mut self, id: GoalId) -> WithdrawOutcome {
        self.withdraw_many(&[id]).pop().unwrap_or_default()
    }

    /// Withdraw several goals in one pass: all their teardowns run as
    /// **one** batched lenient transaction (each touched device staged once
    /// and committed once for the whole pass, instead of one transaction
    /// per goal), then the records are removed.  Sharing stays correct
    /// across the batch: a module is `released` only when no *surviving*
    /// goal's applied plan traverses it, and it is attributed to the first
    /// withdrawn goal that used it.
    pub fn withdraw_many(&mut self, ids: &[GoalId]) -> Vec<WithdrawOutcome> {
        let removing: BTreeSet<GoalId> = ids.iter().copied().collect();
        let mut outcomes: Vec<WithdrawOutcome> = Vec::with_capacity(ids.len());
        let mut teardowns: Vec<GoalTeardown> = Vec::new();
        let mut released_seen: BTreeSet<ModuleRef> = BTreeSet::new();
        for &id in ids {
            let mut outcome = WithdrawOutcome::default();
            let Some(rec) = self.goals.get(id) else {
                outcomes.push(outcome);
                continue;
            };
            // Modules no surviving goal uses — released once the batch is
            // gone.
            let users = self.goals.module_users();
            if let Some(applied) = rec.applied() {
                for step in &applied.path.steps {
                    if users
                        .get(&step.module)
                        .is_some_and(|g| g.contains(&id) && g.iter().all(|u| removing.contains(u)))
                        && released_seen.insert(step.module.clone())
                    {
                        outcome.released.push(step.module.clone());
                    }
                }
            }
            if let Some(applied) = self.goals.take_applied(id) {
                teardowns.push((id, applied.scripts.teardown()));
            }
            outcome.removed = true;
            outcomes.push(outcome);
        }
        if !teardowns.is_empty() {
            let batch = self.run_teardown_batch(&teardowns, &[]);
            for (i, &id) in ids.iter().enumerate() {
                if let Some(count) = batch.per_goal.get(&id) {
                    outcomes[i].teardown_primitives = *count;
                }
            }
        }
        for (i, &id) in ids.iter().enumerate() {
            if outcomes[i].removed {
                outcomes[i].removed = self.goals.remove(id).is_some();
                // The goal's id was its flow tag; nothing will ask for its
                // per-device counters again.
                self.net.forget_flow(id.0);
            }
        }
        outcomes
    }

    /// Drive every stored goal toward its desired state without
    /// verification probes, executing all pending work as **one batched
    /// transaction** (each device staged and committed once per pass).
    /// Idempotent: a converged network produces no transactions.
    pub fn reconcile(&mut self) -> ReconcileReport {
        self.reconcile_with(|_, _| None)
    }

    /// Batched reconcile with per-goal verification.  `probe` receives the
    /// managed network and a goal id and returns `Some(delivered)` when it
    /// can test that goal end to end (`None` = no probe available, trust
    /// the transaction).  Probe traffic runs inside a flow-attribution
    /// window tagged with the goal id, so counter deltas of concurrent
    /// goals stay separable (see `netsim::stats::FlowCounters`).
    ///
    /// The pass: probe `Active` goals (failures degrade and join the work
    /// list), plan every goal that needs work in a disjoint pipe-id block,
    /// tear down stale configurations, execute all plans as one batched
    /// two-phase transaction (per-goal atomicity inside the batch — a goal
    /// whose segment fails anywhere is rolled back via its teardown mirror
    /// without disturbing siblings), then verify each committed goal.
    pub fn reconcile_with<P>(&mut self, probe: P) -> ReconcileReport
    where
        P: FnMut(&mut Self, GoalId) -> Option<bool>,
    {
        self.reconcile_engine(probe, true)
    }

    /// Batched reconcile with the planning loop forced sequential: one
    /// graph rebuild and fresh search state per goal, exactly the pre-
    /// parallel-planning engine.  Kept as the equivalence oracle for
    /// [`Self::reconcile`] (which plans in parallel).
    pub fn reconcile_sequential(&mut self) -> ReconcileReport {
        self.reconcile_sequential_with(|_, _| None)
    }

    /// [`Self::reconcile_sequential`] with per-goal verification probes
    /// (see [`Self::reconcile_with`]).
    pub(crate) fn reconcile_sequential_with<P>(&mut self, probe: P) -> ReconcileReport
    where
        P: FnMut(&mut Self, GoalId) -> Option<bool>,
    {
        self.reconcile_engine(probe, false)
    }

    /// The batched reconcile engine behind both entry points.  `parallel`
    /// selects how the pass chooses paths: fanned out across a scoped
    /// worker pool over a single hoisted potential graph, or goal-by-goal
    /// with a per-goal graph rebuild (the historical cost profile).  Both
    /// arms feed the same sequential merge, which performs every side
    /// effect in goal-id order, so all observable outputs are identical.
    fn reconcile_engine<P>(&mut self, mut probe: P, parallel: bool) -> ReconcileReport
    where
        P: FnMut(&mut Self, GoalId) -> Option<bool>,
    {
        let before = self.nm_counters();
        let mut report = ReconcileReport::default();
        let ids = self.goals.ids();
        let mut outcomes: BTreeMap<GoalId, ReconcileOutcome> = BTreeMap::new();
        let mut work: Vec<GoalId> = Vec::new();
        for &id in &ids {
            let Some(status) = self.goals.status(id) else {
                continue;
            };
            match status {
                GoalStatus::Failed => {
                    outcomes.insert(
                        id,
                        ReconcileOutcome {
                            goal: id,
                            action: ReconcileAction::Unchanged,
                            status,
                            error: self.goals.get(id).and_then(|r| r.last_error.clone()),
                        },
                    );
                }
                GoalStatus::Active => match self.probe_goal(id, &mut probe) {
                    Some(false) => {
                        // The goal looked converged but is not carrying
                        // traffic: degrade and repair in this same pass.
                        self.goals.get_mut(id).expect("goal exists").status = GoalStatus::Degraded;
                        work.push(id);
                    }
                    _ => {
                        outcomes.insert(
                            id,
                            ReconcileOutcome {
                                goal: id,
                                action: ReconcileAction::Unchanged,
                                status,
                                error: None,
                            },
                        );
                    }
                },
                GoalStatus::Pending | GoalStatus::Degraded | GoalStatus::Repairing => {
                    work.push(id);
                }
            }
        }

        // Plan first — planning is a pure dry run, and a goal whose
        // planning fails must leave its stale-but-possibly-working
        // configuration standing.  Each successful plan consumes its pipe
        // block immediately so every plan in the batch is numbered in a
        // disjoint block; blocks of goals that end up not committing are
        // released again below, so failed passes do not leak id space.
        let pipe_floor = self.goals.peek_pipe_base();
        let mut items: Vec<(GoalId, bool, Option<AppliedPlan>, Plan)> = Vec::new();
        let mut stale: Vec<GoalTeardown> = Vec::new();
        // Path selection: the read-only half of planning.  The parallel arm
        // fans the searches out over the worker pool *before* the merge
        // loop; the sequential arm resolves each goal inline, per-goal
        // graph rebuild included.  Either way the merge below runs on this
        // thread, in goal-id order (`work` comes from the sorted store).
        let mut choices = if parallel {
            Some(self.plan_paths_parallel(&work).into_iter())
        } else {
            None
        };
        let mut last_merged: Option<GoalId> = None;
        for &id in &work {
            if let Some(prev) = last_merged {
                debug_assert!(prev < id, "merged plans must arrive in goal-id order");
            }
            last_merged = Some(id);
            let planned = match choices.as_mut() {
                Some(it) => match it.next().expect("one path choice per goal") {
                    Ok((path, used_fallback)) => {
                        if used_fallback {
                            // The suspect-fallback chose a path straight
                            // through the exclusions; clear them exactly as
                            // `plan_goal_or_reinstall` does before re-planning.
                            self.goals
                                .get_mut(id)
                                .expect("goal exists")
                                .excluded
                                .clear();
                        }
                        self.plan_for_path(id, &path)
                    }
                    Err(e) => Err(e),
                },
                None => self.plan_goal_or_reinstall(id),
            };
            let plan = match planned {
                Ok(plan) => plan,
                Err(e) => {
                    outcomes.insert(id, self.fail_planning(id, e));
                    continue;
                }
            };
            self.goals.take_pipe_block(script::slot_count(&plan.path));
            let excluded = self.goals.get(id).map_or(0, |r| r.excluded.len());
            self.recorder.event(
                self.net.now().as_nanos(),
                TraceKind::PlanChosen {
                    goal: id.0,
                    path_len: plan.path.steps.len() as u64,
                    excluded: excluded as u64,
                },
            );
            self.recorder
                .observe("plan.path_len", plan.path.steps.len() as f64);
            self.recorder.observe("plan.exclusions", excluded as f64);
            if let Some(rec) = self.goals.get_mut(id) {
                rec.status = GoalStatus::Repairing;
            }
            // A replacement exists: collect the stale configuration's
            // teardown; all of the pass's teardowns run below as one
            // batched lenient transaction.
            let previous = self.goals.take_applied(id);
            let had_applied = previous.is_some();
            if let Some(prev) = &previous {
                stale.push((id, prev.scripts.teardown()));
            }
            items.push((id, had_applied, previous, plan));
        }
        // Pre-flight (debug builds): the pass's pipe blocks are within
        // budget and disjoint, and no plan crosses its goal's exclusions.
        #[cfg(debug_assertions)]
        {
            let violations = super::verify::check_batch(&self.goals, items.iter().map(|i| &i.3));
            debug_assert!(
                violations.is_empty(),
                "pre-flight: planned batch fails verification: {violations:?}"
            );
        }
        // Tear every replaced goal's stale configuration down as ONE
        // batched transaction (each device staged once and committed once
        // for the whole teardown phase), not one per goal.
        if !stale.is_empty() {
            self.run_teardown_batch(&stale, &[]);
            report.transactions += 1;
        }

        if !items.is_empty() {
            let batch_items: Vec<(GoalId, &crate::nm::ScriptSet)> = items
                .iter()
                .map(|(id, _, _, plan)| (*id, &plan.scripts))
                .collect();
            let batch = self.run_batch(&batch_items);
            report.transactions += 1;
            // Release the blocks of goals that did not commit (the per-goal
            // baseline only consumes a block on commit); blocks below a
            // committed goal's block stay reserved — the allocator is
            // monotonic, holes cannot be returned individually.
            let watermark = items
                .iter()
                .filter(|(id, _, _, _)| batch.committed.contains(id))
                .map(|(_, _, _, plan)| plan.pipe_base + script::slot_count(&plan.path))
                .max()
                .unwrap_or(pipe_floor);
            self.goals.release_pipes_to(watermark);
            for (id, had_applied, previous, plan) in items {
                // Every goal of the batch either committed or failed with a
                // refusal.
                let outcome = if let Some(refusal) = batch.error_for(id) {
                    let error = GoalFailure::Refused(Box::new(refusal.clone()));
                    self.fail_goal_with_restore(id, error, previous, &mut report.transactions)
                } else {
                    self.goals.set_applied(
                        id,
                        Some(AppliedPlan {
                            path: plan.path,
                            scripts: plan.scripts,
                            pipe_base: plan.pipe_base,
                        }),
                    );
                    if let Some(rec) = self.goals.get_mut(id) {
                        rec.status = GoalStatus::Active;
                        rec.last_error = None;
                    }
                    self.verify_applied_goal(id, had_applied, &mut probe)
                };
                outcomes.insert(id, outcome);
            }
        }
        report.outcomes = ids.iter().filter_map(|id| outcomes.remove(id)).collect();
        for o in &report.outcomes {
            if o.action != ReconcileAction::Unchanged {
                self.recorder.event(
                    self.net.now().as_nanos(),
                    TraceKind::GoalOutcome {
                        goal: o.goal.0,
                        action: o.action,
                        status: o.status,
                    },
                );
            }
        }
        let after = self.nm_counters();
        report.nm_sent = after.sent.saturating_sub(before.sent);
        report.nm_received = after.received.saturating_sub(before.received);
        report
    }

    /// Choose a path (with the suspect-fallback re-search) for every goal
    /// in `work`, fanning the searches out across a `std::thread::scope`
    /// worker pool.  Path search is a pure read of the goal store, the NM
    /// and one hoisted potential graph, so workers share them immutably;
    /// each worker reuses one [`SearchScratch`] across its goals and
    /// memoises searches by [`SearchKey`], so same-shaped goals cost one
    /// traversal.  Results come back positionally, so the caller merges
    /// them in `work` order — nothing about thread scheduling can leak
    /// into the outputs.
    fn plan_paths_parallel(&self, work: &[GoalId]) -> Vec<PathChoice> {
        let graph = self.nm.build_graph();
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
            .min(work.len().max(1));
        let mut results: Vec<PathChoice> = Vec::with_capacity(work.len());
        results.resize_with(work.len(), || Err(PlanError::NoPath));
        if workers <= 1 {
            // Degenerate pool (single-core host or single goal): search
            // inline, still with the hoisted graph, reused scratch and
            // search memo.
            let mut scratch = SearchScratch::default();
            let mut memo = BTreeMap::new();
            for (slot, &id) in results.iter_mut().zip(work) {
                *slot = choose_goal_path_memo(
                    &self.nm,
                    &self.goals,
                    &graph,
                    id,
                    &mut scratch,
                    &mut memo,
                );
            }
        } else {
            let chunk = work.len().div_ceil(workers);
            let (nm, goals, graph) = (&self.nm, &self.goals, &graph);
            std::thread::scope(|s| {
                for (ids, slots) in work.chunks(chunk).zip(results.chunks_mut(chunk)) {
                    s.spawn(move || {
                        let mut scratch = SearchScratch::default();
                        let mut memo = BTreeMap::new();
                        for (slot, &id) in slots.iter_mut().zip(ids) {
                            *slot = choose_goal_path_memo(
                                nm,
                                goals,
                                graph,
                                id,
                                &mut scratch,
                                &mut memo,
                            );
                        }
                    });
                }
            });
        }
        results
    }

    /// Reconcile one goal at a time: a batch-of-one transaction per goal,
    /// without verification probes.  Kept as the reference implementation
    /// `tests/goals.rs` compares the batched pass against — end state
    /// (statuses, module refcounts, data-plane connectivity) is identical;
    /// only the message shape differs.
    pub fn reconcile_per_goal(&mut self) -> ReconcileReport {
        self.reconcile_per_goal_with(|_, _| None)
    }

    /// Per-goal-transaction reconcile with verification probes (see
    /// [`Self::reconcile_per_goal`]).
    pub(crate) fn reconcile_per_goal_with<P>(&mut self, mut probe: P) -> ReconcileReport
    where
        P: FnMut(&mut Self, GoalId) -> Option<bool>,
    {
        let before = self.nm_counters();
        let mut report = ReconcileReport::default();
        for id in self.goals.ids() {
            let Some(status) = self.goals.status(id) else {
                continue;
            };
            let outcome = match status {
                GoalStatus::Failed => ReconcileOutcome {
                    goal: id,
                    action: ReconcileAction::Unchanged,
                    status,
                    error: self.goals.get(id).and_then(|r| r.last_error.clone()),
                },
                GoalStatus::Active => {
                    match self.probe_goal(id, &mut probe) {
                        Some(false) => {
                            // The goal looked converged but is not carrying
                            // traffic: degrade and repair in this same pass.
                            self.goals.get_mut(id).expect("goal exists").status =
                                GoalStatus::Degraded;
                            self.apply_goal(id, &mut probe, &mut report.transactions)
                        }
                        _ => ReconcileOutcome {
                            goal: id,
                            action: ReconcileAction::Unchanged,
                            status,
                            error: None,
                        },
                    }
                }
                GoalStatus::Pending | GoalStatus::Degraded | GoalStatus::Repairing => {
                    self.apply_goal(id, &mut probe, &mut report.transactions)
                }
            };
            report.outcomes.push(outcome);
        }
        let after = self.nm_counters();
        report.nm_sent = after.sent.saturating_sub(before.sent);
        report.nm_received = after.received.saturating_sub(before.received);
        report
    }

    /// Probe one goal inside its flow-attribution window.
    fn probe_goal<P>(&mut self, id: GoalId, probe: &mut P) -> Option<bool>
    where
        P: FnMut(&mut Self, GoalId) -> Option<bool>,
    {
        self.net.begin_flow_window(id.0);
        let verdict = probe(self, id);
        self.net.end_flow_window();
        verdict
    }

    /// Plan + execute + verify one goal that needs work.
    fn apply_goal<P>(
        &mut self,
        id: GoalId,
        probe: &mut P,
        transactions: &mut usize,
    ) -> ReconcileOutcome
    where
        P: FnMut(&mut Self, GoalId) -> Option<bool>,
    {
        let had_applied = self.goals.get(id).is_some_and(|r| r.applied().is_some());
        // Plan first — it is a pure dry run, and if no path exists the
        // stale-but-possibly-working configuration must be left standing (a
        // degraded path carrying some traffic beats no path at all).
        let plan = match self.plan_goal_or_reinstall(id) {
            Ok(plan) => plan,
            Err(e) => return self.fail_planning(id, e),
        };
        if let Some(rec) = self.goals.get_mut(id) {
            rec.status = GoalStatus::Repairing;
        }
        // A replacement exists: tear the stale configuration down before
        // applying it.
        let previous = self.goals.take_applied(id);
        if let Some(prev) = &previous {
            self.run_teardown_batch(&[(id, prev.scripts.teardown())], &[]);
            *transactions += 1;
        }
        let executed = self.execute_plan(plan);
        *transactions += 1;
        match executed {
            Ok(()) => self.verify_applied_goal(id, had_applied, probe),
            Err(error) => self.fail_goal_with_restore(id, error, previous, transactions),
        }
    }

    /// Shared planning-failure bookkeeping: the goal parks `Failed` and its
    /// stale configuration, if any, stays standing.  Used by both executors.
    fn fail_planning(&mut self, id: GoalId, error: PlanError) -> ReconcileOutcome {
        let rec = self.goals.get_mut(id).expect("goal exists");
        rec.status = GoalStatus::Failed;
        rec.last_error = Some(GoalFailure::Plan(error));
        ReconcileOutcome {
            goal: id,
            action: ReconcileAction::PlanFailed,
            status: GoalStatus::Failed,
            error: rec.last_error.clone(),
        }
    }

    /// Shared post-commit bookkeeping: probe the freshly applied goal and
    /// settle its status/outcome.  Used by both the batched pass and the
    /// per-goal baseline so the two executors cannot drift apart.
    fn verify_applied_goal<P>(
        &mut self,
        id: GoalId,
        had_applied: bool,
        probe: &mut P,
    ) -> ReconcileOutcome
    where
        P: FnMut(&mut Self, GoalId) -> Option<bool>,
    {
        let verdict = self.probe_goal(id, probe);
        self.recorder.event(
            self.net.now().as_nanos(),
            TraceKind::Verify {
                goal: id.0,
                ok: verdict != Some(false),
            },
        );
        match verdict {
            Some(false) => {
                // A committed plan that carries no traffic burns one repair
                // attempt; past the budget the goal parks `Failed` instead
                // of cycling Degraded → Repairing forever.
                let failure = GoalFailure::ProbeFailed;
                let status = self
                    .goals
                    .charge_repair_attempt(id, failure, GoalStatus::Degraded);
                ReconcileOutcome {
                    goal: id,
                    action: ReconcileAction::ProbeFailed,
                    status,
                    error: Some(GoalFailure::ProbeFailed),
                }
            }
            _ => {
                let rec = self.goals.get_mut(id).expect("goal exists");
                rec.repair_attempts = 0;
                // The repair verified: stop avoiding the suspects.  A
                // transiently blamed link or module must not be excluded
                // forever — a later fault on the *new* path may have no
                // route around it except back over the recovered original.
                rec.excluded.clear();
                ReconcileOutcome {
                    goal: id,
                    action: if had_applied {
                        ReconcileAction::Reapplied
                    } else {
                        ReconcileAction::Applied
                    },
                    status: GoalStatus::Active,
                    error: None,
                }
            }
        }
    }

    /// Shared execution-failure bookkeeping: best-effort restore of the
    /// previous configuration (its scripts re-execute verbatim — the
    /// teardown freed their blackboard state) and park the goal `Pending`
    /// with the error recorded.  Used by both executors.
    fn fail_goal_with_restore(
        &mut self,
        id: GoalId,
        error: GoalFailure,
        previous: Option<AppliedPlan>,
        transactions: &mut usize,
    ) -> ReconcileOutcome {
        if let Some(prev) = previous {
            let restore = self.run_batch(&[(id, &prev.scripts)]);
            *transactions += 1;
            if restore.committed.contains(&id) {
                self.goals.set_applied(id, Some(prev));
            }
        }
        // A rolled-back execution burns one repair attempt; past the budget
        // the goal parks `Failed` instead of re-entering the work list on
        // every pass (the pipe block it would have used is released with
        // the pass).
        let status = self
            .goals
            .charge_repair_attempt(id, error.clone(), GoalStatus::Pending);
        ReconcileOutcome {
            goal: id,
            action: ReconcileAction::ExecuteFailed,
            status,
            error: Some(error),
        }
    }
}

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
//! Every way of putting a plan on the network shares one skeleton: one
//! status triage, one path choice (the suspect-fallback is defined once, in
//! `choose_goal_path`) and one replace step (`replace`, over plans readied
//! by `prepare`) — tear the goals' applied configurations down in one
//! lenient batch, run the new scripts in one strict batch, then adopt each
//! goal's or restore its previous one and charge the repair budget.  The
//! batched pass hands the step all its plans;
//! [`ManagedNetwork::execute_plan`] and [`ManagedNetwork::reconcile_per_goal`]
//! hand it one at a time.  Both passes end alike: the report, and a
//! `GoalOutcome` journaled per goal the pass changed.
//!
//! A pass runs at one width, its number of workers.  Path search inside
//! the batched pass fans out over them (the runtime's one pool, `pool.rs`):
//! search is a pure read of the goal store and one hoisted potential graph,
//! and each worker memoises its searches.  The chosen paths are merged back
//! on the calling thread in goal-id order, and the merge performs every
//! side effect — pipe-block allocation, journal events, store mutation — so
//! journals, transcripts and reports do not depend on the number of
//! workers.  Each transaction round of the pass runs its devices' agents on
//! the same workers (see [`ManagedNetwork::run_management`]).
//! [`ManagedNetwork::reconcile_sequential`] is the same engine at width 1,
//! the byte-equivalence oracle `tests/raw_speed.rs` compares the pool
//! against.
//! [`ManagedNetwork::reconcile_per_goal`] is the memo-free oracle: a batch
//! of one per goal, each planned over a freshly built graph without the
//! search memo; `tests/goals.rs` and `tests/raw_speed.rs` compare the
//! batched pass against it.

use super::txn::GoalTeardown;
use super::{pool, ManagedNetwork};
use crate::ids::ModuleRef;
use crate::nm::goal::{AppliedPlan, Exclusion, GoalFailure, GoalId, GoalStatus, Plan, PlanError};
use crate::nm::{
    script, ConnectivityGoal, GoalStore, ModulePath, NetworkManager, PathFinderLimits,
    PotentialGraph, SearchScratch,
};
use crate::primitives::{Primitive, Refusal};
use conman_obs::TraceKind;
use mgmt_channel::ManagementChannel;
use std::collections::{BTreeMap, BTreeSet};

/// What `reconcile()` did for one goal; defined beside the journal that
/// records it.
pub use conman_obs::ReconcileAction;

/// Per-goal reconcile result.
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone, Default)]
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

/// A path search's verdict for one goal: the chosen path, and whether the
/// suspect-fallback chose it — the merge then clears the goal's exclusions
/// (`ManagedNetwork::plan_choice`).
type PathChoice = Result<(ModulePath, bool), PlanError>;

/// A plan readied for the replace step (see
/// `ManagedNetwork::prepare`), beside the applied plan it replaces.
type Ready = (Plan, Option<AppliedPlan>);

/// Everything the path search reads from a goal record: the endpoint
/// modules, the layer-2 flag, the traffic domain (domain pruning) and the
/// exclusion set.  Two goals with equal keys get byte-identical search
/// results, so each planning worker memoises its searches under this key —
/// a fleet of same-shaped goals (the common case: many VPNs between the
/// same edge interfaces) costs one traversal instead of one per goal.
type SearchKey = (ModuleRef, ModuleRef, bool, String, BTreeSet<Exclusion>);

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
        rec.desired.from,
        rec.desired.to,
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

/// The NM's pick among the paths that satisfy `goal` without entering
/// `excluded`.
fn best_path(
    nm: &NetworkManager,
    graph: &PotentialGraph,
    goal: &ConnectivityGoal,
    excluded: &BTreeSet<Exclusion>,
    limits: PathFinderLimits,
    scratch: &mut SearchScratch,
) -> Option<ModulePath> {
    let paths = nm.find_paths_avoiding_in(graph, goal, excluded, limits, scratch);
    nm.choose_path(&paths).cloned()
}

/// The read-only half of planning a goal that needs work: the best path
/// avoiding the goal's exclusions or, when nothing avoids them, the best
/// path straight through them.  This is the **suspect-fallback**, defined
/// here and nowhere else.  Nothing avoids the suspects when diagnosis blamed
/// an *edge* module every path must traverse or (on a chain) a *link* with
/// no physical alternative; both are reinstalled through rather than failed
/// with an instant `PlanFailed`.  Lost configuration state (flushed tables,
/// wiped label maps) is repaired by *reconfiguring* the blamed module, and a
/// transient link fault heals on a later pass once the link returns.  If the
/// component is genuinely dead, the verification probe fails the reinstall
/// and the repair-attempt budget parks the goal `Failed` instead of
/// thrashing.
///
/// Touches nothing mutable, so it runs on the planning workers; the
/// exclusions a fallback went through are cleared later, by the merge, in
/// goal-id order.
fn choose_goal_path(
    nm: &NetworkManager,
    goals: &GoalStore,
    graph: &PotentialGraph,
    id: GoalId,
    scratch: &mut SearchScratch,
) -> PathChoice {
    let rec = goals.get(id).ok_or(PlanError::UnknownGoal(id))?;
    let (goal, limits) = (&rec.desired, goals.limits);
    if let Some(path) = best_path(nm, graph, goal, &rec.excluded, limits, scratch) {
        return Ok((path, false));
    }
    if rec.excluded.is_empty() {
        return Err(PlanError::NoPath);
    }
    best_path(nm, graph, goal, &BTreeSet::new(), limits, scratch)
        .map(|path| (path, true))
        .ok_or(PlanError::NoPath)
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
        let path = best_path(&self.nm, &graph, goal, excluded, limits, &mut scratch)
            .ok_or(PlanError::NoPath)?;
        self.plan_for_path(id, &path)
    }

    /// The merge step both executors turn a path choice into a plan with:
    /// a path the suspect-fallback chose clears the goal's exclusions first.
    fn plan_choice(&mut self, id: GoalId, choice: PathChoice) -> Result<Plan, PlanError> {
        let (path, through_suspects) = choice?;
        if through_suspects {
            let rec = self.goals.get_mut(id).expect("a planned goal is stored");
            rec.excluded.clear();
        }
        self.plan_for_path(id, &path)
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

    /// Put a plan on the network in place of whatever its goal has applied —
    /// how an operator forces a technology.  It runs the reconcile passes'
    /// replace step on a batch of one: the goal's applied configuration is
    /// torn down, the plan executes as a two-phase transaction, and on
    /// commit the goal becomes `Active` with the plan recorded as applied
    /// (module references included), unprobed.
    ///
    /// A failed forced execute leaves what a failed reconcile pass leaves:
    /// everything the transaction touched is rolled back, the previous
    /// configuration is restored best-effort (its scripts re-executed
    /// verbatim; if that fails too the goal has nothing applied), and the
    /// failure charges one repair attempt and is returned and recorded as
    /// the goal's `last_error`.  A plan whose goal is gone, or whose pipe
    /// block cannot be renumbered onto the store's current base, fails before
    /// anything is sent and changes nothing but `last_error`.
    pub fn execute_plan(&mut self, mut plan: Plan) -> Result<(), GoalFailure> {
        let id = plan.goal;
        // The block may have moved since the dry run (another goal executed
        // in between), or the goal may be gone: re-plan the same path onto
        // the current base, which refuses an unknown goal and a full space.
        if plan.pipe_base != self.goals.peek_pipe_base() || self.goals.get(id).is_none() {
            match self.plan_for_path(id, &plan.path) {
                Ok(renumbered) => plan = renumbered,
                Err(e) => {
                    let error = GoalFailure::Plan(e);
                    if let Some(rec) = self.goals.get_mut(id) {
                        rec.last_error = Some(error.clone());
                    }
                    return Err(error);
                }
            }
        }
        let ready = self.prepare(plan);
        let mut outcomes = self.replace(vec![ready], &mut 0, |_, adopted| adopted);
        let outcome = outcomes.pop().expect("one plan, one outcome");
        outcome.error.map_or(Ok(()), Err)
    }

    /// Ready `plan` for [`Self::replace`]: take its goal's pipe block, so
    /// the next plan is numbered in a disjoint one, mark the goal
    /// `Repairing` and take the applied plan it replaces out of the store.
    fn prepare(&mut self, plan: Plan) -> Ready {
        self.goals.take_pipe_block(script::slot_count(&plan.path));
        if let Some(rec) = self.goals.get_mut(plan.goal) {
            rec.status = GoalStatus::Repairing;
        }
        let previous = self.goals.take_applied(plan.goal);
        (plan, previous)
    }

    /// The one replace step, behind the batched pass, the per-goal oracle
    /// and [`Self::execute_plan`]: put plans readied by [`Self::prepare`],
    /// in block order, in place of what their goals had applied.  The
    /// replaced configurations are torn down in one lenient batch, the plans
    /// run as one strict batch, and the pipe blocks above the highest goal
    /// that did not fail are released (the allocator is monotonic: a hole
    /// below it stays reserved).  Then, per goal in plan order, a failed
    /// goal is restored and charged a repair attempt, and a committed one is
    /// adopted and its `Applied` / `Reapplied` outcome handed to `settle`.
    /// Counts its transactions into `transactions`; returns the outcomes in
    /// plan order.
    fn replace<F>(
        &mut self,
        ready: Vec<Ready>,
        transactions: &mut usize,
        mut settle: F,
    ) -> Vec<ReconcileOutcome>
    where
        F: FnMut(&mut Self, ReconcileOutcome) -> ReconcileOutcome,
    {
        let Some(floor) = ready.first().map(|(plan, _)| plan.pipe_base) else {
            return Vec::new();
        };
        // Pre-flight (debug builds): the pipe blocks are within budget and
        // disjoint, and no plan crosses its goal's exclusions.
        #[cfg(debug_assertions)]
        {
            let plans = ready.iter().map(|(plan, _)| plan);
            let violations = super::verify::check_batch(&self.goals, plans);
            debug_assert!(
                violations.is_empty(),
                "pre-flight: planned batch fails verification: {violations:?}"
            );
        }
        let stale: Vec<GoalTeardown> = (ready.iter())
            .filter_map(|(plan, previous)| Some((plan.goal, previous.as_ref()?.scripts.teardown())))
            .collect();
        if !stale.is_empty() {
            self.run_teardown_batch(&stale, &[]);
            *transactions += 1;
        }
        drop(stale);
        let (items, rest): (Vec<_>, Vec<_>) = (ready.into_iter())
            .map(|(plan, previous)| {
                let rest = (plan.goal, plan.path, plan.pipe_base, previous);
                ((plan.goal, plan.scripts), rest)
            })
            .unzip();
        let (batch, kept) = self.run_staged(items);
        *transactions += 1;
        let mut failed: BTreeMap<GoalId, Refusal> = batch.failed.into_iter().collect();
        let watermark = (rest.iter())
            .filter(|(id, ..)| !failed.contains_key(id))
            .map(|(_, path, pipe_base, _)| pipe_base + script::slot_count(path))
            .max()
            .unwrap_or(floor);
        self.goals.release_pipes_to(watermark);
        (rest.into_iter().zip(kept))
            .map(|((id, path, pipe_base, previous), scripts)| {
                // Every goal of the batch either committed or failed with a
                // refusal.
                if let Some(refusal) = failed.remove(&id) {
                    return self.fail_goal_with_restore(id, refusal, previous, transactions);
                }
                let action = match previous {
                    Some(_) => ReconcileAction::Reapplied,
                    None => ReconcileAction::Applied,
                };
                let applied = AppliedPlan {
                    path,
                    scripts,
                    pipe_base,
                };
                self.adopt(id, applied);
                let adopted = ReconcileOutcome {
                    goal: id,
                    action,
                    status: GoalStatus::Active,
                    error: None,
                };
                settle(self, adopted)
            })
            .collect()
    }

    /// Record a committed plan as its goal's applied configuration: the goal
    /// is `Active` and its `last_error` cleared.  The configuration it
    /// replaces must already be torn down — one still applied here would be
    /// left on the devices with no goal claiming it.
    fn adopt(&mut self, id: GoalId, applied: AppliedPlan) {
        let replaced = self.goals.set_applied(id, Some(applied));
        debug_assert!(replaced.is_none(), "goal {id} adopted over an applied plan");
        if let Some(rec) = self.goals.get_mut(id) {
            rec.status = GoalStatus::Active;
            rec.last_error = None;
        }
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
                        && released_seen.insert(step.module)
                    {
                        outcome.released.push(step.module);
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
    /// without disturbing siblings), then verify each committed goal.  The
    /// pass runs at one width, `min(available_parallelism, 8)`: its path
    /// search and the agents of each of its transaction rounds run on up to
    /// that many workers.
    pub fn reconcile_with<P>(&mut self, probe: P) -> ReconcileReport
    where
        P: FnMut(&mut Self, GoalId) -> Option<bool>,
    {
        self.reconcile_engine(probe, pool::default_width())
    }

    /// [`Self::reconcile`] at width 1: the same engine, hoisted graph and
    /// search memo, with path search and every transaction round on the
    /// calling thread and no thread started.  Kept as the equivalence oracle
    /// for the worker pool: reports, journals and NM message counts must
    /// match byte for byte.
    pub fn reconcile_sequential(&mut self) -> ReconcileReport {
        self.reconcile_engine(|_, _| None, 1)
    }

    /// The batched reconcile engine behind both entry points, at one width
    /// for the whole pass.  Path search fans out over at most `workers`
    /// workers (never more than there are goals needing work) and feeds a
    /// sequential merge that performs every side effect in goal-id order;
    /// each transaction round runs its devices' agents on as many (see
    /// [`Self::run_management`]).  All observable outputs are independent
    /// of `workers`.
    fn reconcile_engine<P>(&mut self, mut probe: P, workers: usize) -> ReconcileReport
    where
        P: FnMut(&mut Self, GoalId) -> Option<bool>,
    {
        let outer = self.pass_width.replace(workers);
        let before = (self.counters.sent, self.counters.received);
        let mut outcomes = BTreeMap::new();
        let work = self.triage(&mut probe, &mut outcomes);

        // Plan first — planning is a pure dry run, and a goal whose
        // planning fails must leave its stale-but-possibly-working
        // configuration standing.  Each successful plan is readied at once,
        // which takes its pipe block, so every plan in the batch is
        // numbered in a disjoint block.
        let mut ready: Vec<Ready> = Vec::new();
        for (id, choice) in self.plan_paths(&work, workers) {
            let plan = match self.plan_choice(id, choice) {
                Ok(plan) => plan,
                Err(e) => {
                    outcomes.insert(id, self.fail_planning(id, e));
                    continue;
                }
            };
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
            ready.push(self.prepare(plan));
        }
        let mut transactions = 0;
        let settle = |mn: &mut Self, adopted| mn.verify_applied_goal(adopted, &mut probe);
        for outcome in self.replace(ready, &mut transactions, settle) {
            outcomes.insert(outcome.goal, outcome);
        }
        self.pass_width = outer;
        self.pass_report(before, transactions, outcomes)
    }

    /// The end every pass shares: its outcomes in id order, one
    /// `GoalOutcome` journaled for each goal the pass did not leave
    /// `Unchanged`, and the NM's messages since `before`, its counters when
    /// the pass began.
    fn pass_report(
        &self,
        before: (u64, u64),
        transactions: usize,
        outcomes: BTreeMap<GoalId, ReconcileOutcome>,
    ) -> ReconcileReport {
        let outcomes: Vec<ReconcileOutcome> = outcomes.into_values().collect();
        for o in &outcomes {
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
        ReconcileReport {
            outcomes,
            transactions,
            nm_sent: self.counters.sent.saturating_sub(before.0),
            nm_received: self.counters.received.saturating_sub(before.1),
        }
    }

    /// The status triage both executors open a pass with, over every stored
    /// goal in id order.  A `Failed` goal is left `Unchanged` with its
    /// `last_error`; an `Active` goal is probed and, if the probe fails,
    /// degraded to be repaired in this same pass; anything else needs work.
    /// Settled goals get their outcome in `outcomes`; the goals that need
    /// work are returned, in id order.
    fn triage<P>(
        &mut self,
        probe: &mut P,
        outcomes: &mut BTreeMap<GoalId, ReconcileOutcome>,
    ) -> Vec<GoalId>
    where
        P: FnMut(&mut Self, GoalId) -> Option<bool>,
    {
        let mut work = Vec::new();
        for id in self.goals.ids() {
            let Some(status) = self.goals.status(id) else {
                continue;
            };
            let error = match status {
                GoalStatus::Failed => self.goals.get(id).and_then(|r| r.last_error.clone()),
                GoalStatus::Active if self.probe_goal(id, probe) != Some(false) => None,
                GoalStatus::Active => {
                    // The goal looked converged but is not carrying
                    // traffic: degrade and repair in this same pass.
                    self.goals.get_mut(id).expect("goal exists").status = GoalStatus::Degraded;
                    work.push(id);
                    continue;
                }
                GoalStatus::Pending | GoalStatus::Degraded | GoalStatus::Repairing => {
                    work.push(id);
                    continue;
                }
            };
            let outcome = ReconcileOutcome {
                goal: id,
                action: ReconcileAction::Unchanged,
                status,
                error,
            };
            outcomes.insert(id, outcome);
        }
        work
    }

    /// Choose a path for every goal in `work`, in `work` order (see
    /// [`choose_goal_path`]), fanned out over at most `workers` workers by
    /// [`pool::fan_out`], which runs the first chunk on the calling thread
    /// and so starts nothing at one worker.  Path search is a pure read of
    /// the goal store, the NM and one hoisted potential graph, so workers
    /// share them immutably; each worker reuses one [`SearchScratch`] across
    /// its goals and memoises searches by [`SearchKey`], so same-shaped goals
    /// cost one traversal.  Results come back in `work` order — nothing
    /// about thread scheduling can leak into the outputs.
    fn plan_paths(&self, work: &[GoalId], workers: usize) -> Vec<(GoalId, PathChoice)> {
        let graph = self.nm.build_graph();
        let (nm, goals, graph) = (&self.nm, &self.goals, &graph);
        let mut choices: Vec<(GoalId, PathChoice)> = (work.iter())
            .map(|&id| (id, Err(PlanError::NoPath)))
            .collect();
        pool::fan_out(workers, &mut choices, |chunk| {
            let mut scratch = SearchScratch::default();
            let mut memo = BTreeMap::new();
            for (id, choice) in chunk {
                *choice = choose_goal_path_memo(nm, goals, graph, *id, &mut scratch, &mut memo);
            }
        });
        choices
    }

    /// Reconcile one goal at a time, without verification probes: after the
    /// shared triage, each goal that needs work is planned over a freshly
    /// built potential graph without the search memo, then put on the
    /// network by the replace step the batched pass runs, on a batch of one
    /// per goal, with its own teardown and restore.  Kept as
    /// the memo-free reference implementation `tests/goals.rs` and
    /// `tests/raw_speed.rs` compare the batched pass against — end state
    /// (statuses, applied paths, module refcounts, data-plane connectivity)
    /// is identical; only the message shape differs.  It runs at width 1,
    /// so it starts no thread.
    pub fn reconcile_per_goal(&mut self) -> ReconcileReport {
        let outer = self.pass_width.replace(1);
        let before = (self.counters.sent, self.counters.received);
        let mut transactions = 0;
        let mut probe = |_: &mut Self, _: GoalId| None;
        let mut outcomes = BTreeMap::new();
        for id in self.triage(&mut probe, &mut outcomes) {
            let graph = self.nm.build_graph();
            let choice = choose_goal_path(
                &self.nm,
                &self.goals,
                &graph,
                id,
                &mut SearchScratch::default(),
            );
            let outcome = match self.plan_choice(id, choice) {
                // Planning failed: the stale-but-possibly-working
                // configuration is left standing.
                Err(e) => self.fail_planning(id, e),
                Ok(plan) => {
                    let ready = self.prepare(plan);
                    let settle =
                        |mn: &mut Self, adopted| mn.verify_applied_goal(adopted, &mut probe);
                    let mut replaced = self.replace(vec![ready], &mut transactions, settle);
                    replaced.pop().expect("one plan, one outcome")
                }
            };
            outcomes.insert(id, outcome);
        }
        self.pass_width = outer;
        self.pass_report(before, transactions, outcomes)
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

    /// How the batched pass and the per-goal oracle settle an adopted goal:
    /// probe it and keep its `adopted` outcome, or charge a repair attempt
    /// when the probe finds no traffic.
    fn verify_applied_goal<P>(
        &mut self,
        adopted: ReconcileOutcome,
        probe: &mut P,
    ) -> ReconcileOutcome
    where
        P: FnMut(&mut Self, GoalId) -> Option<bool>,
    {
        let id = adopted.goal;
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
                adopted
            }
        }
    }

    /// The replace step's failure bookkeeping: best-effort restore of the
    /// previous configuration (its staged segments, decoded, are staged
    /// again verbatim and encode to the same bytes — the teardown freed
    /// their blackboard state) and park the goal `Pending` with the refusal
    /// recorded.
    fn fail_goal_with_restore(
        &mut self,
        id: GoalId,
        refusal: Refusal,
        previous: Option<AppliedPlan>,
        transactions: &mut usize,
    ) -> ReconcileOutcome {
        if let Some(prev) = previous {
            let restore = self.run_batch(&[(id, &prev.scripts.decode())]);
            *transactions += 1;
            if restore.committed.contains(&id) {
                self.goals.set_applied(id, Some(prev));
            }
        }
        // A rolled-back execution burns one repair attempt; past the budget
        // the goal parks `Failed` instead of re-entering the work list on
        // every pass (the pipe block it would have used is released with
        // the pass).
        let error = GoalFailure::Refused(Box::new(refusal));
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

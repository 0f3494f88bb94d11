//! Integration tests for the declarative multi-goal API: GoalStore → Plan →
//! Transaction with reconciliation.
//!
//! The acceptance scenarios of the API redesign: two concurrent goals
//! sharing core modules both configure through `reconcile()`; withdrawing
//! one leaves the other carrying traffic; a mid-commit device crash rolls
//! back cleanly leaving no partially-configured modules; and `reconcile()`
//! is idempotent on a converged network.

use conman::core::ids::{ModuleId, ModuleKind, ModuleRef};
use conman::core::module::ModuleError;
use conman::core::nm::script::generate_with_base;
use conman::core::nm::{
    ConnectivityGoal, DeviceScript, Exclusion, GoalFailure, GoalId, GoalStatus, GoalStore,
    PlanError, ScriptSet,
};
use conman::core::primitives::{
    ComponentRef, FilterSpec, Primitive, Refusal, RefusalCause, WireMessage,
};
use conman::core::runtime::verify::PlanViolation;
use conman::core::runtime::{ManagedNetwork, ReconcileAction, ReconcileReport, TxnEvent};
use conman::core::ManagementAgent;
use conman::modules::{
    managed_chain, managed_chain_with, managed_dual_chain, managed_fanout_chain,
    managed_mesh_fanout, managed_vlan_chain, ManagedMesh,
};
use conman::netsim::config::{DeviceConfig, FilterAction, FilterRule};
use conman::netsim::device::DeviceId;
use conman::netsim::ipv4::Ipv4Cidr;
use conman::netsim::network::Network;
use conman::obs::Recorder;
use mgmt_channel::{ManagementChannel, MgmtMessage, OutOfBandChannel};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

type Chain = conman::modules::ManagedChain<OutOfBandChannel>;

/// The observable end state of a reconcile scenario, for comparing the
/// batched executor against the per-goal baseline: per-goal statuses (in
/// submission order), the module-usage refcount multiset, how many modules
/// are shared, and end-to-end connectivity.  Module refs and pipe ids are
/// instance-specific, so the comparison is over shapes, not raw ids.
#[derive(Debug, PartialEq)]
struct EndState {
    statuses: Vec<GoalStatus>,
    refcounts: Vec<usize>,
    shared_modules: usize,
    probes: Vec<bool>,
}

fn end_state(t: &mut Chain, report: &ReconcileReport, probes: Vec<bool>) -> EndState {
    let statuses = report.outcomes.iter().map(|o| o.status).collect();
    let mut refcounts: Vec<usize> =
        t.mn.goals
            .module_users()
            .values()
            .map(|g| g.len())
            .collect();
    refcounts.sort_unstable();
    let shared_modules = refcounts.iter().filter(|&&n| n >= 2).count();
    EndState {
        statuses,
        refcounts,
        shared_modules,
        probes,
    }
}

/// Install goal `id` on its `technology` path (e.g. `GRE-IP`) rather than
/// the one `reconcile()` would prefer.
fn install_on(mn: &mut ManagedNetwork<OutOfBandChannel>, id: GoalId, technology: &str) {
    let desired = mn.goals.get(id).expect("goal exists").desired.clone();
    let path = mn
        .nm
        .find_paths(&desired)
        .into_iter()
        .find(|p| p.technology_label() == technology)
        .unwrap_or_else(|| panic!("no {technology} path for goal {id}"));
    let plan = mn.plan_for_path(id, &path).expect("plan");
    assert!(mn.execute_plan(plan).is_ok(), "goal {id} commits");
}

/// What the audit finds after `scripts` ran through `run_batch` directly:
/// the store never adopted them, so every component they create is held and
/// claimed by no goal.
fn orphans_of(scripts: &ScriptSet) -> Vec<PlanViolation> {
    orphans(scripts.components())
}

/// The audit's verdict on `components` when no goal claims them.
fn orphans(components: BTreeSet<(DeviceId, ComponentRef)>) -> Vec<PlanViolation> {
    let orphan = |(device, component)| PlanViolation::OrphanDeviceState { device, component };
    components.into_iter().map(orphan).collect()
}

#[test]
fn two_concurrent_goals_share_core_modules_and_withdraw_is_isolated() {
    let mut t = managed_dual_chain(3);
    t.discover();
    let g1 = t.mn.submit(t.vpn_goal());
    let g2 = t.mn.submit(t.vpn_goal2());

    // Dry-run planning before anything is applied: no module is shared yet.
    let plan = t.mn.plan_goal(g2).expect("a path exists");
    assert!(plan.modules_reused.is_empty());
    assert!(!plan.modules_created.is_empty());
    // Planning sent nothing: both goals are still pending.
    assert_eq!(t.mn.goals.status(g1), Some(GoalStatus::Pending));
    assert_eq!(t.mn.goals.status(g2), Some(GoalStatus::Pending));

    // One reconcile pass configures both goals as a single batched
    // transaction (each device staged once, committed once).
    let report = t.mn.reconcile();
    assert!(report.converged(), "both goals active: {report:#?}");
    assert_eq!(report.transactions, 1);
    assert!(report.nm_sent > 0, "the pass reports its message deltas");
    assert!(t.probe(), "customer 1 traffic flows");
    assert!(t.probe2(), "customer 2 traffic flows");

    // The goals share module instances (the ISP core at minimum): the
    // store's reference counts see modules used by both.
    let users = t.mn.goals.module_users();
    let shared: Vec<_> = users.iter().filter(|(_, g)| g.len() == 2).collect();
    assert!(
        !shared.is_empty(),
        "concurrent goals must share core modules: {users:#?}"
    );
    // A fresh dry-run for goal 2's path now reports the sharing.
    let plan = t.mn.plan_goal(g2).expect("a path exists");
    assert!(!plan.modules_reused.is_empty());

    // Withdrawing goal 1 deletes only its own components: modules used by
    // goal 2 are not released, and goal 2 still carries traffic end to end.
    let w = t.mn.withdraw(g1);
    assert!(w.removed);
    assert!(w.teardown_primitives > 0);
    for released in &w.released {
        assert_eq!(
            t.mn.goals.module_refcount(released),
            0,
            "released modules have no surviving users"
        );
    }
    assert!(t.probe2(), "goal 2 survives goal 1's withdraw");
    assert!(!t.probe(), "goal 1's VPN is gone after withdraw");
    assert_eq!(t.mn.goals.len(), 1);
    assert_eq!(t.mn.audit(), []);
}

#[test]
fn mid_commit_device_crash_rolls_back_cleanly_and_reconcile_retries() {
    let mut t = managed_chain(3);
    t.discover();
    let id = t.mn.submit(t.vpn_goal());

    // Crash the middle router after staging, right before its commit.
    let b = t.core[1];
    t.mn.txn_hook = Some(Box::new(move |event, net| {
        let TxnEvent::BeforeCommit { device, .. } = event;
        if *device == b {
            net.set_device_up(b, false);
        }
    }));
    let report = t.mn.reconcile();
    let outcome = report.outcome(id).expect("goal reconciled");
    assert_eq!(outcome.action, ReconcileAction::ExecuteFailed);
    assert_eq!(t.mn.goals.status(id), Some(GoalStatus::Pending));
    assert!(!t.probe(), "the goal is not configured");
    t.mn.txn_hook = None;

    // No partially-configured modules anywhere that answers: every commit
    // that landed was rolled back, every staged script aborted.
    assert_eq!(t.mn.audit(), [PlanViolation::DeviceSilent { device: b }]);

    // The crashed router reboots; the goal is still desired, so the next
    // reconcile converges it.
    t.mn.net.set_device_up(b, true);
    // It missed the abort while it was down, and holds nothing anyway: its
    // stage was written under the boot before the crash.
    assert_eq!(t.mn.audit(), []);
    let report = t.mn.reconcile();
    assert!(report.converged(), "{report:#?}");
    assert!(t.probe(), "traffic flows after the retry");
    assert_eq!(t.mn.audit(), []);
}

/// An NM rebuilt over running devices restarts its txn ids at 1, below
/// what the devices hold, and its pipe blocks at the old NM's first: its
/// first transaction is refused as stale instead of colliding with the old
/// NM's pipes, and touches nothing.
#[test]
fn a_rebuilt_nm_is_refused_as_stale_and_touches_nothing() {
    let mut t = managed_chain(3);
    t.discover();
    // Converge the goal in the first pipe block, then withdraw a second
    // goal: every device on the path has heard a txn id above 1.
    let id = t.mn.submit(t.vpn_goal());
    let second = t.mn.submit(t.vpn_goal());
    assert!(t.mn.reconcile().converged());
    assert!(t.mn.withdraw(second).removed);
    let old =
        t.mn.goals
            .get(id)
            .and_then(|g| g.applied())
            .expect("applied");
    let old_components = orphans(old.scripts.components());
    let devices: Vec<DeviceId> = t.mn.agents.keys().copied().collect();
    let before = t.mn.show_actual(&devices);

    t.mn.goals = GoalStore::new();
    let recorder = Recorder::new();
    t.mn.set_recorder(recorder.clone());
    let id = t.mn.submit(t.vpn_goal());
    let report = t.mn.reconcile();
    let error = report.outcome(id).and_then(|o| o.error.clone());
    assert!(
        matches!(&error, Some(GoalFailure::Refused(r)) if r.cause == RefusalCause::StaleTxn),
        "{error:?}"
    );
    // Each device on the goal's path refused the stage, and each refusal
    // is counted.
    assert_eq!(recorder.counter("txn.stale_refused"), 3);
    assert_eq!(t.mn.show_actual(&devices), before);
    assert_eq!(t.mn.audit(), old_components);
}

#[test]
fn two_goals_share_one_edge_gre_module_and_withdraw_stays_isolated() {
    // Force both goals onto GRE-IP paths so they *must* share the edge GRE
    // modules: the multi-tunnel GRE module carries one tunnel per goal
    // (keyed by pipe, distinct key material per tunnel) instead of failing
    // the second goal's transaction.
    let mut t = managed_dual_chain(3);
    t.discover();
    let g1 = t.mn.submit(t.vpn_goal());
    let g2 = t.mn.submit(t.vpn_goal2());
    for id in [g1, g2] {
        install_on(&mut t.mn, id, "GRE-IP");
    }
    assert!(t.probe(), "goal 1 carries traffic");
    assert!(t.probe2(), "goal 2 carries traffic");

    // Both goals reference the same edge GRE module instances.
    for core in [t.core[0], t.core[2]] {
        let gre = t.mn.nm.find_module(core, &ModuleKind::Gre).unwrap();
        assert_eq!(
            t.mn.goals.module_refcount(&gre),
            2,
            "both goals share the GRE module on {core}"
        );
    }
    // Two distinct tunnels (distinct keys) are configured on each edge.
    let ingress = t.mn.net.device(t.core[0]).unwrap();
    assert_eq!(ingress.config.tunnels().count(), 2);
    let keys: std::collections::BTreeSet<_> =
        ingress.config.tunnels().map(|tun| tun.okey).collect();
    assert_eq!(keys.len(), 2, "concurrent tunnels use distinct keys");

    // Withdrawing one goal tears down only its own tunnel: the sibling
    // keeps its pipe, its key and its traffic.
    let w = t.mn.withdraw(g1);
    assert!(w.removed);
    assert!(w.teardown_primitives > 0);
    assert!(t.probe2(), "goal 2 survives goal 1's withdraw");
    assert!(!t.probe(), "goal 1's VPN is gone");
    let ingress = t.mn.net.device(t.core[0]).unwrap();
    assert_eq!(ingress.config.tunnels().count(), 1, "one tunnel survives");
    let gre = t.mn.nm.find_module(t.core[0], &ModuleKind::Gre).unwrap();
    assert_eq!(t.mn.goals.module_refcount(&gre), 1);
    assert_eq!(t.mn.audit(), []);
}

#[test]
fn withdraw_heavy_pass_stages_each_device_once_for_the_whole_batch() {
    use mgmt_channel::MessageCategory;

    // Eight goals over the same three devices; withdrawing them all at
    // once must coalesce every teardown into ONE StageBatch/CommitBatch
    // pair per device — commands proportional to devices, not goals.
    let mut t = managed_chain(3);
    t.discover();
    let ids: Vec<_> = (0..8)
        .map(|k| t.mn.submit(conman_bench::synthetic_goal(&t, k)))
        .collect();
    let report = t.mn.reconcile();
    assert!(report.converged());
    let devices_touched = 3;

    t.mn.reset_counters();
    let outcomes = t.mn.withdraw_many(&ids);
    assert!(outcomes.iter().all(|o| o.removed));
    assert!(outcomes.iter().all(|o| o.teardown_primitives > 0));
    let commands =
        t.mn.nm_counters()
            .sent_by_category
            .get(&MessageCategory::Command)
            .copied()
            .unwrap_or(0);
    assert_eq!(
        commands,
        2 * devices_touched,
        "one StageBatch + one CommitBatch per device for all 8 teardowns"
    );
    assert!(t.mn.goals.is_empty());
    assert_eq!(t.mn.audit(), []);
}

#[test]
fn update_heavy_pass_coalesces_stale_teardowns_into_one_batch() {
    let mut t = managed_chain(3);
    t.discover();
    let ids: Vec<_> = (0..4)
        .map(|k| t.mn.submit(conman_bench::synthetic_goal(&t, k)))
        .collect();
    assert!(t.mn.reconcile().converged());

    // Update every goal: the next pass tears all four stale configurations
    // down as ONE batched lenient transaction and applies the replacements
    // as ONE batched configuration transaction.
    for (k, id) in ids.iter().enumerate() {
        assert!(t
            .mn
            .update_goal(*id, conman_bench::synthetic_goal(&t, k + 20)));
    }
    let report = t.mn.reconcile();
    assert!(report.converged(), "{report:#?}");
    assert_eq!(
        report.transactions, 2,
        "one coalesced teardown batch + one configuration batch"
    );
    assert_eq!(t.mn.audit(), []);
}

/// The fifth residue bug (ISSUE 21): GRE sequence counters were kept in
/// per-device maps keyed by tunnel id that nothing emptied when a tunnel was
/// removed, and tunnel ids are reused.  After the ingress reboots (its
/// transmit counter restarts at 1) a withdrawn-and-reinstalled goal got
/// tunnel id 1 again, the egress still remembered "last sequence 5" for id
/// 1, and the *repaired* goal black-holed every packet as out of order.
#[test]
fn reinstalled_gre_goal_does_not_inherit_a_dead_tunnels_sequence_state() {
    use conman::netsim::fault::{apply_fault, FaultKind};

    let mut t = managed_chain(3);
    t.discover();
    let id = t.mn.submit(t.vpn_goal());
    install_on(&mut t.mn, id, "GRE-IP");
    for n in 1..=5 {
        assert!(t.probe(), "probe {n} over the first tunnel");
    }

    let ingress = t.core[0];
    apply_fault(&mut t.mn.net, FaultKind::DeviceCrash(ingress));
    apply_fault(&mut t.mn.net, FaultKind::DeviceRestore(ingress));
    assert!(t.mn.withdraw(id).removed);

    let id = t.mn.submit(t.vpn_goal());
    install_on(&mut t.mn, id, "GRE-IP");
    assert!(
        t.probe(),
        "the reinstalled goal's first packet is sequence 1 of a new tunnel"
    );
    assert_eq!(t.mn.audit(), []);
}

/// Forcing another technology over an applied goal replaces its
/// configuration.  `execute_plan` used to drop the replaced plan without
/// tearing it down: the reconciled MPLS path's pipes and switch rules stayed
/// listed on the core routers, claimed by no goal, and no later withdraw
/// could remove them.
#[test]
fn execute_plan_over_an_applied_goal_tears_the_replaced_path_down() {
    let mut t = managed_chain(3);
    t.discover();
    let id = t.mn.submit(t.vpn_goal());
    assert!(t.mn.reconcile().converged());
    let applied = |t: &Chain| {
        let rec = t.mn.goals.get(id).expect("goal exists");
        rec.applied()
            .expect("an applied plan")
            .path
            .technology_label()
    };
    assert_eq!(applied(&t), "MPLS");

    install_on(&mut t.mn, id, "GRE-IP");
    assert_eq!(applied(&t), "GRE-IP");
    assert_eq!(t.mn.goals.status(id), Some(GoalStatus::Active));
    assert!(t.probe(), "the forced path carries traffic");
    assert_eq!(t.mn.audit(), []);

    assert!(t.mn.withdraw(id).removed);
    assert_eq!(t.mn.audit(), []);
}

/// A plan whose goal was withdrawn after its dry run is refused before any
/// device hears of it.  It used to commit, leaving a configuration on the
/// routers that no goal claims.
#[test]
fn execute_plan_for_a_withdrawn_goal_sends_nothing() {
    let mut t = managed_chain(3);
    t.discover();
    let id = t.mn.submit(t.vpn_goal());
    let plan = t.mn.plan_goal(id).expect("a path exists");
    assert!(t.mn.withdraw(id).removed);
    t.mn.reset_counters();
    assert_eq!(
        t.mn.execute_plan(plan),
        Err(GoalFailure::Plan(PlanError::UnknownGoal(id)))
    );
    assert_eq!(t.mn.nm_counters().sent, 0, "no device hears of the plan");
    assert_eq!(t.mn.audit(), []);
}

#[test]
fn reconcile_is_idempotent_on_a_converged_network() {
    let mut t = managed_dual_chain(3);
    t.discover();
    t.mn.submit(t.vpn_goal());
    t.mn.submit(t.vpn_goal2());
    let first = t.mn.reconcile();
    assert!(first.converged());
    assert_eq!(first.transactions, 1, "one batched transaction per pass");

    // A second pass has nothing to do: no transactions, no new messages.
    t.mn.reset_counters();
    let second = t.mn.reconcile();
    assert!(second.converged());
    assert_eq!(second.transactions, 0);
    assert_eq!(second.nm_sent, 0, "a converged pass reports zero sends");
    assert_eq!(second.nm_received, 0);
    let counters = t.mn.nm_counters();
    assert!(
        counters.sent_by_category.is_empty(),
        "a converged reconcile sends nothing: {counters:?}"
    );
    assert!(t.probe() && t.probe2());
    assert_eq!(t.mn.audit(), []);
}

#[test]
fn reconcile_with_probes_verifies_and_repairs_degraded_goals() {
    let mut t = managed_dual_chain(3);
    t.discover();
    let g1 = t.mn.submit(t.vpn_goal());
    let g2 = t.mn.submit(t.vpn_goal2());
    let mut p1 = t.probe_fn();
    let mut p2 = t.probe2_fn();
    let report = t.mn.reconcile_with(|mn, id| {
        if id == g1 {
            Some(p1(mn))
        } else if id == g2 {
            Some(p2(mn))
        } else {
            None
        }
    });
    assert!(report.converged(), "{report:#?}");

    // Wipe the middle router's data-plane state behind the NM's back: the
    // goals look Active but their probes fail, so a verifying reconcile
    // degrades and re-applies them in the same pass.
    conman::netsim::fault::apply_fault(
        &mut t.mn.net,
        conman::netsim::fault::FaultKind::Misconfigure(
            conman::netsim::fault::Misconfiguration::ClearMplsState { device: t.core[1] },
        ),
    );
    let mut p1 = t.probe_fn();
    let mut p2 = t.probe2_fn();
    let report = t.mn.reconcile_with(|mn, id| {
        if id == g1 {
            Some(p1(mn))
        } else if id == g2 {
            Some(p2(mn))
        } else {
            None
        }
    });
    assert!(report.transactions > 0, "repair work happened");
    assert!(report.converged(), "{report:#?}");
    assert!(t.probe() && t.probe2());
    assert_eq!(t.mn.audit(), []);
}

#[test]
fn per_goal_probe_attribution_separates_concurrent_goals() {
    let mut t = managed_dual_chain(3);
    t.discover();
    let g1 = t.mn.submit(t.vpn_goal());
    let g2 = t.mn.submit(t.vpn_goal2());
    let mut p1 = t.probe_fn();
    let mut p2 = t.probe2_fn();
    let report = t.mn.reconcile_with(|mn, id| {
        if id == g1 {
            Some(p1(mn))
        } else if id == g2 {
            Some(p2(mn))
        } else {
            None
        }
    });
    assert!(report.converged());

    // The verification probes ran inside per-goal flow windows: the middle
    // router's tallies are attributed to each owning goal separately.
    let b = t.core[1];
    let f1 = t.mn.net.flow_counters(b, g1.0);
    let f2 = t.mn.net.flow_counters(b, g2.0);
    assert!(f1.forwarded > 0, "goal 1's probe crossed the core: {f1:?}");
    assert!(f2.forwarded > 0, "goal 2's probe crossed the core: {f2:?}");
    // And the source hosts only appear in their own goal's flow.
    assert!(t.mn.net.flow_counters(t.host1, g1.0).originated > 0);
    assert!(t.mn.net.flow_counters(t.host1, g2.0).is_empty());
    let (host3, _) = t.second_pair.unwrap();
    assert!(t.mn.net.flow_counters(host3, g2.0).originated > 0);
    assert!(t.mn.net.flow_counters(host3, g1.0).is_empty());
    assert_eq!(t.mn.audit(), []);
}

#[test]
fn goal_lifecycle_plan_failure_update_and_retry() {
    let mut t = managed_chain(3);
    t.discover();
    let id = t.mn.submit(t.vpn_goal());

    // Exclude every module of the (unavoidable) middle router: no path can
    // avoid the suspects, so the reconciler's suspect-fallback drops the
    // exclusions and *reinstalls through* them — the autonomic answer to a
    // blamed module whose state was lost rather than whose hardware died.
    let excluded: std::collections::BTreeSet<_> = t.mn.nm.abstractions[&t.core[1]]
        .iter()
        .map(|a| Exclusion::Module(a.name))
        .collect();
    t.mn.goals.mark_degraded(id, excluded);
    let report = t.mn.reconcile();
    let outcome = report.outcome(id).unwrap();
    assert_eq!(outcome.action, ReconcileAction::Applied);
    assert_eq!(t.mn.goals.status(id), Some(GoalStatus::Active));
    assert!(
        t.mn.goals.get(id).unwrap().excluded.is_empty(),
        "the reinstall cleared the unavoidable exclusions"
    );
    assert!(t.probe());
    // Converged goals are left alone by later passes, and `retry` has
    // nothing to re-arm.
    let report = t.mn.reconcile();
    assert_eq!(report.transactions, 0);
    assert!(!t.mn.goals.retry(id));

    // An update returns the goal to Pending and the next reconcile
    // re-applies it (teardown + fresh transaction).
    let goal = t.vpn_goal();
    assert!(t.mn.update_goal(id, goal));
    assert_eq!(t.mn.goals.status(id), Some(GoalStatus::Pending));
    let report = t.mn.reconcile();
    let outcome = report.outcome(id).unwrap();
    assert_eq!(outcome.action, ReconcileAction::Reapplied);
    assert!(report.converged());
    assert!(t.probe());
    assert_eq!(t.mn.audit(), []);
}

// ---------------------------------------------------------------------------
// Batched vs per-goal equivalence: both executors must produce identical
// goal statuses, module refcounts and data-plane connectivity — only the
// message shape differs.
// ---------------------------------------------------------------------------

#[test]
fn report_message_counters_match_channel_deltas() {
    let mut t = managed_dual_chain(3);
    t.discover();
    t.mn.submit(t.vpn_goal());
    t.mn.submit(t.vpn_goal2());
    t.mn.reset_counters();
    let report = t.mn.reconcile();
    let counters = t.mn.nm_counters();
    assert_eq!(
        report.nm_sent, counters.sent,
        "ReconcileReport.nm_sent is the pass's channel delta"
    );
    assert_eq!(report.nm_received, counters.received);
    assert!(report.nm_sent > 0);
    assert_eq!(t.mn.audit(), []);
}

/// The per-goal oracle ends its pass as the batched one does: with an
/// enabled recorder it journals one `GoalOutcome` per goal it applied, and
/// the journal conforms.
#[test]
fn a_per_goal_pass_journals_each_applied_goal() {
    use conman::obs::TraceKind;

    let mut t = managed_dual_chain(3);
    t.discover();
    let recorder = Recorder::new();
    t.mn.set_recorder(recorder.clone());
    let goals = [t.mn.submit(t.vpn_goal()), t.mn.submit(t.vpn_goal2())];
    assert!(t.mn.reconcile_per_goal().converged());
    let events = recorder.journal_events();
    let journaled: Vec<_> = (events.iter())
        .filter_map(|e| match e.kind {
            TraceKind::GoalOutcome {
                goal,
                action,
                status,
            } => Some((GoalId(goal), action, status)),
            _ => None,
        })
        .collect();
    let applied = goals.map(|goal| (goal, ReconcileAction::Applied, GoalStatus::Active));
    assert_eq!(journaled, applied, "one GoalOutcome per applied goal");
    let violations = conman::analyze::check_journal(&events);
    assert!(
        violations.is_empty(),
        "the journal conforms: {violations:?}"
    );
}

#[test]
fn batched_and_per_goal_reconcile_are_equivalent_on_fresh_goals() {
    let run = |batched: bool| {
        let mut t = managed_dual_chain(3);
        t.discover();
        t.mn.submit(t.vpn_goal());
        t.mn.submit(t.vpn_goal2());
        let report = if batched {
            t.mn.reconcile()
        } else {
            t.mn.reconcile_per_goal()
        };
        let probes = vec![t.probe(), t.probe2()];
        assert_eq!(t.mn.audit(), []);
        (end_state(&mut t, &report, probes), report.nm_sent)
    };
    let (batched, batched_sent) = run(true);
    let (per_goal, per_goal_sent) = run(false);
    assert_eq!(batched, per_goal, "identical end state");
    assert_eq!(batched.statuses, vec![GoalStatus::Active; 2]);
    assert!(batched.probes.iter().all(|&p| p));
    assert!(
        batched_sent < per_goal_sent,
        "batching sends fewer messages: {batched_sent} vs {per_goal_sent}"
    );
}

#[test]
fn batched_pass_sends_a_quarter_of_the_per_goal_messages_at_64_goals() {
    // 64 goals on the 10-router chain, each executor on a fresh network with
    // a recorder attached after discovery so only the pass is counted.
    let run = |batched: bool| {
        let mut t = managed_chain(10);
        t.discover();
        t.mn.goals.limits = conman_bench::diagnosis::chain_limits(10);
        let recorder = Recorder::new();
        t.mn.set_recorder(recorder.clone());
        for k in 0..64 {
            t.mn.submit(conman_bench::synthetic_goal(&t, k));
        }
        let report = if batched {
            t.mn.reconcile()
        } else {
            t.mn.reconcile_per_goal()
        };
        assert_eq!(report.active(), 64, "every goal converges");
        let bytes = recorder.counter("txn.encode_bytes");
        assert_eq!(t.mn.audit(), []);
        (report, bytes)
    };
    let (batched, batched_bytes) = run(true);
    let (per_goal, per_goal_bytes) = run(false);
    assert_eq!(batched.transactions, 1, "the fresh pass is one batch");
    assert_eq!(per_goal.transactions, 64, "a batch of one per goal");
    assert!(
        batched.nm_sent * 4 <= per_goal.nm_sent,
        "batched reconcile must send <= 25% of the per-goal messages: {} vs {}",
        batched.nm_sent,
        per_goal.nm_sent
    );
    assert!(batched_bytes > 0, "the batch's wire bytes are counted");
    assert!(
        per_goal_bytes > 0,
        "per-goal transactions are counted on the wire like any batch"
    );
}

/// Where the middle router breaks a transaction in the crash-equivalence
/// test below.
#[derive(Debug, Clone, Copy)]
enum MidRouterFault {
    /// Its agent has lost every module: each staged segment is rejected.
    StageRejected,
    /// It is down before the pass starts: staging is never answered.
    SilentAtStage,
    /// It crashes after staging, right before its commit.
    CrashBeforeCommit,
}

#[test]
fn batched_and_per_goal_equivalent_under_mid_commit_crash() {
    // Break the middle router at each point a transaction can fail: in both
    // modes every affected goal rolls back cleanly and parks Pending, and nothing of it survives anywhere that answers — no
    // staged segment, no pipe or switch rule, no consumed pipe-id block.
    let run = |batched: bool, fault: MidRouterFault| {
        let case = format!("batched={batched} {fault:?}");
        let mut t = managed_dual_chain(3);
        t.discover();
        t.mn.submit(t.vpn_goal());
        t.mn.submit(t.vpn_goal2());
        let b = t.core[1];
        let mut real_agent = None;
        match fault {
            MidRouterFault::StageRejected => {
                real_agent = t.mn.agents.insert(b, ManagementAgent::new(b, "B"));
            }
            MidRouterFault::SilentAtStage => t.mn.net.set_device_up(b, false),
            MidRouterFault::CrashBeforeCommit => {
                t.mn.txn_hook = Some(Box::new(move |event, net| {
                    let TxnEvent::BeforeCommit { device, .. } = event;
                    if *device == b {
                        net.set_device_up(b, false);
                    }
                }));
            }
        }
        let pipe_base_before = t.mn.goals.peek_pipe_base();
        let report = if batched {
            t.mn.reconcile()
        } else {
            t.mn.reconcile_per_goal()
        };
        t.mn.txn_hook = None;
        if let Some(agent) = real_agent {
            t.mn.agents.insert(b, agent);
        }
        // Neither executor may leak pipe-id blocks for goals that failed to
        // commit (the batched pass releases blocks it allocated up front).
        assert_eq!(
            t.mn.goals.peek_pipe_base(),
            pipe_base_before,
            "failed pass must not consume pipe-id space ({case})"
        );
        let silent = match fault {
            MidRouterFault::StageRejected => vec![],
            _ => vec![PlanViolation::DeviceSilent { device: b }],
        };
        assert_eq!(t.mn.audit(), silent, "{case}");
        let probes = vec![t.probe(), t.probe2()];
        (end_state(&mut t, &report, probes), t)
    };
    for fault in [
        MidRouterFault::StageRejected,
        MidRouterFault::SilentAtStage,
        MidRouterFault::CrashBeforeCommit,
    ] {
        let (batched, _) = run(true, fault);
        let (per_goal, mut t) = run(false, fault);
        assert_eq!(batched, per_goal, "identical end state ({fault:?})");
        assert_eq!(batched.statuses, vec![GoalStatus::Pending; 2]);
        assert!(batched.probes.iter().all(|&p| !p));

        // The router is back (rebooted, or its modules restored); the next
        // batched pass converges both goals and leaves nothing staged
        // anywhere.
        t.mn.net.set_device_up(t.core[1], true);
        let report = t.mn.reconcile();
        assert!(report.converged(), "{report:#?}");
        assert!(t.probe() && t.probe2());
        assert_eq!(t.mn.audit(), []);
    }
}

/// A batch of two goals over the 2×3 mesh, g1 through the upper row and g2
/// through the lower, in which only g2 fails: a lower-row router crashes
/// right before its commit, with `recorder` attached for the batch.
struct MidBatchFailure {
    t: ManagedMesh<OutOfBandChannel>,
    g1: GoalId,
    g2: GoalId,
    /// What the audit finds once g2 rolls back: g1's components, which the
    /// store never adopted, and the crashed router's silence; nothing of g2.
    residue: Vec<PlanViolation>,
    /// The router that crashed (only g2 crosses it).
    crashed: DeviceId,
    /// The devices that committed g2 before the crash, where its rollback
    /// runs.
    committed_g2: BTreeSet<u64>,
    outcome: conman::core::runtime::BatchOutcome,
}

/// The scripts of goal `id` over the path the NM prefers without the
/// `avoided` links, numbered from pipe id `base`, and the path's devices.
fn scripts_avoiding(
    t: &mut ManagedMesh<OutOfBandChannel>,
    id: GoalId,
    avoided: &[(DeviceId, DeviceId)],
    base: u32,
) -> (ScriptSet, Vec<DeviceId>) {
    let links = avoided
        .iter()
        .map(|&(a, b)| Exclusion::link(a, b))
        .collect();
    t.mn.goals.mark_degraded(id, links);
    let path = t.mn.plan_goal(id).expect("a path exists").path;
    let desired = &t.mn.goals.get(id).expect("goal exists").desired;
    (
        generate_with_base(&t.mn.nm, &path, desired, base),
        path.devices(),
    )
}

fn fail_one_goal_mid_batch(recorder: Recorder) -> MidBatchFailure {
    let mut t = managed_mesh_fanout(3, 2);
    t.discover();
    t.mn.goals.limits = conman_bench::control_loop::mesh_limits(3);
    let g1 = t.mn.submit(t.fanout_goal(0));
    let g2 = t.mn.submit(t.fanout_goal(1));
    // g1 keeps to the upper row and g2 to the lower: each avoids the other
    // row's edge links and every cross-link between the rows.
    let (ingress, egress, upper, lower) = (t.ingress, t.egress, t.upper.clone(), t.lower.clone());
    let cross: Vec<_> = upper.iter().copied().zip(lower.iter().copied()).collect();
    let lower_edges = [(ingress, lower[0]), (lower[2], egress)];
    let upper_edges = [(ingress, upper[0]), (upper[2], egress)];
    let (plan1, path1) = scripts_avoiding(&mut t, g1, &[&cross[..], &lower_edges].concat(), 0);
    let (plan2, path2) = scripts_avoiding(&mut t, g2, &[&cross[..], &upper_edges].concat(), 1000);
    assert_eq!(path1, [&[ingress][..], &upper, &[egress]].concat());
    assert_eq!(path2, [&[ingress][..], &lower, &[egress]].concat());

    // The lower row's middle router crashes right before its commit: every
    // other device on g2's path commits it in the same wave and rolls it
    // back; g1 never crosses the router and commits everywhere.
    let crashed = lower[1];
    t.mn.txn_hook = Some(Box::new(move |event, net| {
        let TxnEvent::BeforeCommit { device, .. } = event;
        if *device == crashed {
            net.set_device_up(crashed, false);
        }
    }));
    t.mn.set_recorder(recorder);
    let outcome = t.mn.run_batch(&[(g1, &plan1), (g2, &plan2)]);
    t.mn.txn_hook = None;

    // Devices commit in one wave, so every device of g2's path but the
    // crashed router answered its commit and holds g2's creates.
    let answered = path2.iter().filter(|d| **d != crashed);
    let committed_g2 = answered.map(|d| d.as_u64()).collect();
    let mut residue = orphans_of(&plan1);
    let before = |v: &PlanViolation| match v {
        PlanViolation::OrphanDeviceState { device, .. } => *device < crashed,
        _ => false,
    };
    let silent = PlanViolation::DeviceSilent { device: crashed };
    residue.insert(residue.partition_point(before), silent);
    MidBatchFailure {
        t,
        g1,
        g2,
        residue,
        crashed,
        committed_g2,
        outcome,
    }
}

#[test]
fn one_goal_failing_mid_batch_rolls_back_without_disturbing_siblings() {
    let MidBatchFailure {
        mut t,
        g1,
        g2,
        residue,
        crashed,
        outcome,
        ..
    } = fail_one_goal_mid_batch(Recorder::disabled());
    assert_eq!(outcome.committed, vec![g1], "the sibling goal commits");
    assert_eq!(
        outcome.failed,
        [(
            g2,
            Refusal {
                device: crashed,
                component: None,
                cause: RefusalCause::UnansweredCommit,
            }
        )],
        "g2 failed at commit"
    );

    // g1's configuration is live end to end; g2's creates on every device
    // that answered the commit wave were rolled back via the teardown
    // mirror, and the crashed router was sent an abort.
    assert!(t.probe_pair(0), "the sibling goal carries traffic");
    assert_eq!(t.mn.audit(), residue);
}

#[test]
fn a_mid_batch_rollback_is_a_journaled_teardown_transaction() {
    use conman::obs::TraceKind;

    let recorder = Recorder::new();
    let MidBatchFailure {
        mut t,
        g1,
        residue,
        crashed,
        committed_g2,
        outcome,
        ..
    } = fail_one_goal_mid_batch(recorder.clone());
    let events = recorder.journal_events();

    // The rollback of g2 is a second transaction, newer than the batch's,
    // staged and committed on exactly the devices that answered the commit
    // wave, where g2's creates landed — no delete leaves the NM without a
    // journal event.
    let staged = |txn: u64| -> BTreeSet<u64> {
        events
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::StageDevice { txn: t, device, .. } if t == txn => Some(device),
                _ => None,
            })
            .collect()
    };
    let committed = |txn: u64, want: bool| -> BTreeSet<u64> {
        events
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::CommitDevice { txn: t, device, ok } if t == txn && ok == want => {
                    Some(device)
                }
                _ => None,
            })
            .collect()
    };
    let txns: BTreeSet<u64> = events
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::StageDevice { txn, .. } => Some(txn),
            _ => None,
        })
        .collect();
    assert_eq!(txns.len(), 2, "the batch and its rollback: {events:?}");
    let (batch, rollback) = (
        txns.first().copied().unwrap(),
        txns.last().copied().unwrap(),
    );
    assert!(rollback > batch);
    assert_eq!(committed_g2.len(), 4, "g2's path but the crashed router");
    assert_eq!(staged(rollback), committed_g2);
    assert_eq!(committed(rollback, true), committed_g2);
    assert!(committed(rollback, false).is_empty());
    let crash = BTreeSet::from([crashed.as_u64()]);
    assert_eq!(committed(batch, false), crash, "g2 failed there");
    let violations = conman::analyze::check_journal(&events);
    assert!(
        violations.is_empty(),
        "the journal conforms: {violations:?}"
    );

    // The sibling is untouched by the rollback.
    assert_eq!(outcome.committed, vec![g1]);
    assert!(t.probe_pair(0), "the sibling goal carries traffic");
    assert_eq!(t.mn.audit(), residue);
}

/// The out-of-band channel, noting the goals of every `CommitBatch` the NM
/// sends, by device.
#[derive(Default)]
struct CommitTap {
    inner: OutOfBandChannel,
    commits: Vec<(DeviceId, Vec<u64>)>,
}

impl ManagementChannel for CommitTap {
    fn send(&mut self, net: &mut Network, msg: MgmtMessage) {
        if let Some(WireMessage::CommitBatch { goals, .. }) = WireMessage::decode(&msg.payload) {
            self.commits.push((msg.to, goals));
        }
        self.inner.send(net, msg);
    }
    fn run(&mut self, net: &mut Network) {
        self.inner.run(net);
    }
    fn recv(&mut self, net: &mut Network, device: DeviceId) -> Vec<MgmtMessage> {
        self.inner.recv(net, device)
    }
}

/// A goal refused at stage in the middle of a batch.  g2's segment on the
/// egress router, a GRE up pipe without the trade-offs its dependency asks
/// for (Table III row iii), is refused by the router's admission step, so
/// no device is ever asked to commit g2: nothing of it needs rolling back,
/// and g1, staged and committed beside it, is all the routers hold.
#[test]
fn a_goal_refused_at_stage_mid_batch_is_sent_no_commit() {
    use conman::core::ids::PipeId;
    use conman::core::primitives::PipeSpec;

    let mut t = managed_chain_with(3, CommitTap::default());
    t.discover();
    let g1 = t.mn.submit(t.vpn_goal());
    let g2 = t.mn.submit(t.vpn_goal());
    let plan1 = t.mn.plan_goal(g1).expect("a path exists");
    let egress = t.core[2];
    let gre = t.mn.nm.find_module(egress, &ModuleKind::Gre).unwrap();
    let ip = t.mn.nm.find_module(egress, &ModuleKind::Ip).unwrap();
    let bad_spec = PipeSpec {
        pipe: PipeId(5000), // far away from g1's block
        upper: ip,
        lower: gre,
        peer_upper: None,
        peer_lower: None,
        peer_pipe: None,
        tradeoffs: vec![],
        initiate: false,
    };
    let bad = ScriptSet {
        scripts: vec![DeviceScript {
            device: egress,
            primitives: vec![Primitive::CreatePipe(bad_spec)],
        }],
    };

    let outcome = t.mn.run_batch(&[(g1, &plan1.scripts), (g2, &bad)]);
    assert_eq!(outcome.committed, [g1], "the sibling goal commits");
    let refusal = Refusal {
        device: egress,
        component: Some(ComponentRef::Pipe(PipeId(5000))),
        cause: RefusalCause::Module(ModuleError::MissingTradeoffs),
    };
    assert_eq!(outcome.failed, [(g2, refusal)], "g2 is refused at stage");
    let commits = &t.mn.channel.commits;
    assert_eq!(commits.len(), 3, "one CommitBatch per router: {commits:?}");
    assert!(
        commits.iter().all(|(_, goals)| *goals == [g1.0]),
        "no CommitBatch names g2: {commits:?}"
    );
    assert!(t.probe(), "the sibling goal carries traffic");
    assert_eq!(t.mn.audit(), orphans_of(&plan1.scripts));
}

/// The goal's mirror image: the same interfaces and classes, traversed in
/// the opposite direction.
fn reversed(goal: &ConnectivityGoal) -> ConnectivityGoal {
    let mut g = goal.clone();
    std::mem::swap(&mut g.from, &mut g.to);
    std::mem::swap(&mut g.src_class, &mut g.dst_class);
    std::mem::swap(&mut g.src_gateway, &mut g.dst_gateway);
    g
}

/// Does the chain carry customer traffic both ways between the sites?
fn delivers_both_ways(t: &mut Chain) -> bool {
    t.send_site1_to_site2(b"there").0 && t.send_site2_to_site1(b"back").0
}

/// Goals crossing the same devices in opposite directions share one commit
/// wave.  Their exchanges run between the same modules in both directions
/// at once, and each module tells them apart by the pipe each message
/// names.  Every technology the three-router chain offers carries
/// both goals together, and either goal alone once the other is torn down.
#[test]
fn opposite_direction_goals_share_one_wave() {
    let mut t = managed_chain(3);
    t.discover();
    let g1 = t.mn.submit(t.vpn_goal());
    let g2 = t.mn.submit(t.vpn_goal());
    let (a, c) = (t.core[0], t.core[2]);
    let seg = |device| DeviceScript {
        device,
        primitives: vec![Primitive::ShowActual],
    };
    let fwd = ScriptSet {
        scripts: vec![seg(a), seg(c)],
    };
    let rev = ScriptSet {
        scripts: vec![seg(c), seg(a)],
    };
    let outcome = t.mn.run_batch(&[(g1, &fwd), (g2, &rev)]);
    assert_eq!(outcome.committed, [g1, g2], "both goals commit");
    assert!(outcome.failed.is_empty());
    assert_eq!(t.mn.audit(), []);

    // Real pairs: a forward and a reverse goal over one technology, in
    // disjoint pipe blocks, in one batch.
    let technologies = [
        "GRE-IP",
        "GRE-IP over MPLS",
        "IP-IP",
        "IP-IP over MPLS",
        "MPLS",
    ];
    for technology in technologies {
        for survivor in 0..2 {
            let mut t = managed_chain(3);
            t.discover();
            let fwd = t.vpn_goal();
            let desired = [fwd.clone(), reversed(&fwd)];
            let goals = desired.clone().map(|goal| t.mn.submit(goal));
            let plans = [(&desired[0], 0), (&desired[1], 1000)].map(|(goal, base)| {
                let paths = t.mn.nm.find_paths(goal);
                let path = paths.iter().find(|p| p.technology_label() == technology);
                let path = path.unwrap_or_else(|| panic!("a {technology} path"));
                generate_with_base(&t.mn.nm, path, goal, base)
            });
            let outcome =
                t.mn.run_batch(&[(goals[0], &plans[0]), (goals[1], &plans[1])]);
            assert_eq!(outcome.committed, goals, "{technology}: both goals commit");
            assert!(outcome.failed.is_empty(), "{technology}: {outcome:?}");
            assert!(
                delivers_both_ways(&mut t),
                "{technology}: both goals together"
            );
            let gone = 1 - survivor;
            t.mn.run_teardown_batch(&[(goals[gone], plans[gone].teardown())], &[]);
            assert!(
                delivers_both_ways(&mut t),
                "{technology}: goal {survivor} alone"
            );
            assert_eq!(
                t.mn.audit(),
                orphans_of(&plans[survivor]),
                "{technology}: goal {survivor} alone"
            );
        }
    }
}

/// Forward and reverse goals over one technology share the core IP module
/// above MPLS, whose pipe to its peer never exchanges addresses.  Such a
/// pipe used to stay the IP module's lowest unlearned pipe to that peer
/// forever and take the reverse goal's exchange, so the reverse goal's
/// switch rules never installed: it carried nothing once the forward goal
/// was withdrawn.
#[test]
fn a_reverse_goal_over_mpls_keeps_its_own_address_exchange() {
    for technology in ["IP-IP over MPLS", "GRE-IP over MPLS"] {
        let mut t = managed_chain(3);
        t.discover();
        let fwd = t.vpn_goal();
        let rev = reversed(&fwd);
        let fwd = t.mn.submit(fwd);
        let rev = t.mn.submit(rev);
        install_on(&mut t.mn, fwd, technology);
        install_on(&mut t.mn, rev, technology);
        assert_eq!(t.mn.audit(), [], "{technology}: both installed");
        assert!(t.mn.withdraw(fwd).removed);
        assert_eq!(t.mn.audit(), [], "{technology}: forward withdrawn");
        assert!(
            delivers_both_ways(&mut t),
            "{technology}: the reverse goal carries traffic alone"
        );
    }
}

// ---------------------------------------------------------------------------
// Identifier-space guard rails at the bench ceiling.
// ---------------------------------------------------------------------------

#[test]
fn pipe_space_exhaustion_fails_the_goal_cleanly() {
    let mut t = managed_chain(3);
    t.discover();
    let id = t.mn.submit(t.vpn_goal());
    // A 512-goal pass worth of blocks stays far below the cap...
    let per_goal_slots = 32u32;
    t.mn.goals.take_pipe_block(512 * per_goal_slots);
    assert!(t.mn.goals.check_pipe_block(per_goal_slots).is_ok());
    // ...but a store near the derived-id cap refuses to plan: the goal
    // parks Failed with a clean error instead of wrapping route-table ids.
    let to_cap = conman::core::GoalStore::MAX_PIPE_ID - 2 - t.mn.goals.peek_pipe_base();
    t.mn.goals.take_pipe_block(to_cap);
    let err = t.mn.plan_goal(id).expect_err("planning must refuse");
    assert!(
        matches!(err, PlanError::PipeSpaceExhausted { .. }),
        "unexpected error: {err:?}"
    );
    let report = t.mn.reconcile();
    let outcome = report.outcome(id).expect("goal reconciled");
    assert_eq!(outcome.action, ReconcileAction::PlanFailed);
    assert_eq!(t.mn.goals.status(id), Some(GoalStatus::Failed));
    assert!(
        matches!(
            outcome.error,
            Some(GoalFailure::Plan(PlanError::PipeSpaceExhausted { .. }))
        ),
        "{outcome:?}"
    );
    // Nothing was sent for the unplannable goal.
    assert_eq!(report.transactions, 0);
    assert_eq!(t.mn.audit(), []);
}

/// A goal that names a class it never resolved is refused at planning, by
/// both executors, before any device hears of it.  It used to plan, ship
/// the class as `value: ""` (which the IP module cannot parse, so the rule
/// waited forever) and commit `Active`.
#[test]
fn a_goal_naming_an_unresolved_class_is_refused_at_planning() {
    let mut t = managed_chain(3);
    t.discover();
    let mut goal = t.vpn_goal();
    goal.resolved.remove("C1-S2");
    let id = t.mn.submit(goal);
    let configs = |t: &Chain| -> Vec<DeviceConfig> {
        t.core
            .iter()
            .map(|d| t.mn.net.device(*d).expect("router").config.clone())
            .collect()
    };
    let before = configs(&t);
    t.mn.reset_counters();
    let unresolved = PlanError::Unresolved("C1-S2".to_string());

    // The operator way: every technology's plan is refused.
    let desired = t.mn.goals.get(id).expect("goal exists").desired.clone();
    let paths = t.mn.nm.find_paths(&desired);
    assert_eq!(paths.len(), 9);
    for path in &paths {
        assert_eq!(t.mn.plan_for_path(id, path).err(), Some(unresolved.clone()));
    }
    // The reconciler's way.
    let report = t.mn.reconcile();
    let outcome = report.outcome(id).expect("goal reconciled");
    assert_eq!(outcome.action, ReconcileAction::PlanFailed);
    assert_eq!(outcome.error, Some(GoalFailure::Plan(unresolved)));
    assert_eq!(report.transactions, 0);

    let nm = t.mn.nm_counters();
    assert_eq!(
        (nm.sent, nm.received),
        (0, 0),
        "no device hears of the goal"
    );
    assert_eq!(configs(&t), before);
    assert_eq!(t.mn.audit(), []);
}

/// What a device's data plane holds that a goal can add to.
type DataPlane = (
    conman::netsim::route::Rib,
    Vec<conman::netsim::config::TunnelConfig>,
    usize,
    usize,
    Option<conman::netsim::config::BridgeConfig>,
);

fn data_plane(mn: &ManagedNetwork<OutOfBandChannel>, routers: &[DeviceId]) -> Vec<DataPlane> {
    routers
        .iter()
        .map(|d| {
            let config = &mn.net.device(*d).expect("router exists").config;
            (
                config.rib.clone(),
                config.tunnels().cloned().collect(),
                config.mpls.nhlfe.len(),
                config.mpls.xc.len(),
                config.bridge.clone(),
            )
        })
        .collect()
}

/// Submit `goals`, converge (on the paths `reconcile()` prefers, or on
/// every goal's `technology` path when one is named), withdraw them all, and
/// hold the no-residue invariant on every router: nothing of a withdrawn
/// goal is left in any module's `showActual`, on any agent's blackboard or
/// staging table, in the data plane, or in the runtime state kept for a
/// tunnel.
fn assert_withdraw_leaves_nothing(
    mn: &mut ManagedNetwork<OutOfBandChannel>,
    routers: &[DeviceId],
    goals: Vec<ConnectivityGoal>,
    technology: Option<&str>,
) {
    let before = data_plane(mn, routers);
    let ids: Vec<_> = goals.into_iter().map(|g| mn.submit(g)).collect();
    match technology {
        None => assert_eq!(mn.reconcile().active(), ids.len(), "every goal converges"),
        Some(technology) => ids.iter().for_each(|id| install_on(mn, *id, technology)),
    }
    assert_ne!(
        data_plane(mn, routers),
        before,
        "the goals configured something"
    );
    // Every tunnel the goals brought up holds runtime state (counters,
    // sequence numbers) under its id for as long as it exists.
    let tunnels: Vec<(DeviceId, u32)> = routers
        .iter()
        .flat_map(|d| {
            let config = &mn.net.device(*d).expect("router exists").config;
            config.tunnels().map(move |t| (*d, t.id))
        })
        .collect();
    assert!(technology.is_none() || !tunnels.is_empty());

    assert!(mn.withdraw_many(&ids).iter().all(|w| w.removed));
    for (d, id) in tunnels {
        assert_eq!(
            mn.net.device(d).unwrap().config.tunnel_counters(id),
            None,
            "{d} kept runtime state for withdrawn tunnel {id}"
        );
    }
    assert_eq!(mn.audit(), []);
    assert_eq!(
        data_plane(mn, routers),
        before,
        "data plane is back to baseline"
    );
}

#[test]
fn withdrawing_every_goal_leaves_no_module_state_behind() {
    let mut t = managed_fanout_chain(4, 6);
    t.discover();
    t.mn.goals.limits = conman_bench::diagnosis::chain_limits(4);
    let routers = t.core.clone();
    for technology in [None, Some("GRE-IP")] {
        let goals = (0..6).map(|k| t.fanout_goal(k)).collect();
        assert_withdraw_leaves_nothing(&mut t.mn, &routers, goals, technology);
    }

    let mut t = managed_mesh_fanout(3, 6);
    t.discover();
    t.mn.goals.limits = conman_bench::control_loop::mesh_limits(3);
    let routers = t.routers().to_vec();
    for technology in [None, Some("GRE-IP")] {
        let goals = (0..6).map(|k| t.fanout_goal(k)).collect();
        assert_withdraw_leaves_nothing(&mut t.mn, &routers, goals, technology);
    }

    // The VLAN chain: a fresh switch floods the customer frame untagged
    // through the default VLAN, a configured one tunnels it in VLAN 22,
    // and a withdrawn goal leaves the bridge — and so the frame's
    // encapsulation on the first trunk — as it was found.
    let mut t = managed_vlan_chain(3);
    t.discover();
    let untouched = t.send_customer_frame(b"before the goal");
    assert!(!untouched.1.iter().any(|p| p.contains("VLAN(22)")));
    let goal = t.vlan_goal();
    let switches = t.switches.clone();
    assert_withdraw_leaves_nothing(&mut t.mn, &switches, vec![goal], None);
    let (delivered, trace) = t.send_customer_frame(b"after the withdraw");
    assert_eq!(delivered, untouched.0);
    assert!(
        !trace.iter().any(|p| p.contains("VLAN(22)")),
        "a withdrawn VLAN goal still tunnels: {trace:?}"
    );
    // And the switches take the goal again.
    t.mn.submit(t.vlan_goal());
    assert_eq!(t.mn.reconcile().active(), 1);
    let (delivered, trace) = t.send_customer_frame(b"tunnelled again");
    assert!(delivered && trace.iter().any(|p| p.contains("VLAN(22)")));
    assert_eq!(t.mn.audit(), []);
}

/// Figure 7's goal on its GRE-IP path, router C, and a `create (filter)` on
/// C's ISP IP module (`<IP,C,m4>`) dropping what comes `from` to it.
fn figure_7_on_gre() -> (Chain, DeviceId, impl Fn(&ModuleRef) -> Primitive) {
    let mut t = managed_chain(3);
    t.discover();
    let id = t.mn.submit(t.vpn_goal());
    install_on(&mut t.mn, id, "GRE-IP");
    let c = t.core[2];
    let module = ModuleRef::new(ModuleKind::Ip, ModuleId(4), c);
    let filter = move |from: &ModuleRef| {
        Primitive::CreateFilter(FilterSpec {
            module,
            from: *from,
            to: module,
        })
    };
    (t, c, filter)
}

/// Router `device`'s configuration.
fn config_of(t: &Chain, device: DeviceId) -> DeviceConfig {
    t.mn.net.device(device).expect("a device").config.clone()
}

/// One script of `primitives` on `device`.
fn script_on(device: DeviceId, primitives: Vec<Primitive>) -> ScriptSet {
    ScriptSet {
        scripts: vec![DeviceScript { device, primitives }],
    }
}

/// A filter names modules only.  On Figure 7's GRE-IP path, C's ISP IP
/// module resolves A's (`<IP,A,m4>`, its peer on the GRE endpoint pipe) to
/// the address it learned and itself to its own, drops the tunnelled
/// traffic until the filter's teardown, and refuses a module it never
/// exchanged addresses with (`<IP,A,m3>`, A's customer-facing one).
/// Regression, for the teardown: the IP module's `delete` fell through for
/// `ComponentRef::Filter`, leaving the rule dropping traffic and listed.
#[test]
fn a_filter_on_the_figure_7_goal_resolves_its_ends_from_modules_alone() {
    let (mut t, c, filter) = figure_7_on_gre();
    let a = t.core[0];
    assert!(t.send_site1_to_site2(b"before the filter").0);
    let before = config_of(&t, c);
    let goal = GoalId(7);

    let stranger = ModuleRef::new(ModuleKind::Ip, ModuleId(3), a);
    let refused = filter(&stranger);
    let refusal = Refusal {
        device: c,
        component: refused.component(),
        cause: RefusalCause::Module(ModuleError::UnresolvedFilterEnd(stranger)),
    };
    let outcome = t.mn.run_batch(&[(goal, &script_on(c, vec![refused]))]);
    assert_eq!(outcome.failed, [(goal, refusal)]);
    assert_eq!(config_of(&t, c), before, "a refused filter changes nothing");

    let scripts = script_on(
        c,
        vec![filter(&ModuleRef::new(ModuleKind::Ip, ModuleId(4), a))],
    );
    assert_eq!(t.mn.run_batch(&[(goal, &scripts)]).committed, [goal]);
    let host = |addr: [u8; 4]| Some(Ipv4Cidr::new(Ipv4Addr::from(addr), 32));
    let rule = FilterRule {
        id: 1,
        action: FilterAction::Drop,
        src: host([204, 9, 168, 1]),
        dst: host([204, 9, 169, 1]),
        proto: None,
        dst_port: None,
    };
    assert_eq!(t.mn.net.device(c).expect("C").config.filters, [rule]);
    assert!(!t.send_site1_to_site2(b"while the filter holds").0);
    // The store never adopted the filter: C lists it and nothing else, and
    // no goal claims it.
    assert_eq!(t.mn.audit(), orphans_of(&scripts));

    let torn = t.mn.run_teardown_batch(&[(goal, scripts.teardown())], &[]);
    assert!(torn.skipped.is_empty());
    assert_eq!(config_of(&t, c), before, "the teardown removed the filter");
    assert!(t.send_site1_to_site2(b"after the teardown").0);
    assert_eq!(t.mn.audit(), []);
}

/// Regression: the IP module checked a repeated `create (filter)` against
/// the filters it held, not against the batch's earlier creates.  Created
/// twice in one segment or by two goals of one batch, both rules were
/// installed and the module kept only the second's id, so the teardown
/// left one rule dropping traffic that `audit()` could not see.  The
/// repeat is now refused `FilterInUse` at stage.
#[test]
fn a_filter_created_twice_in_one_segment_is_refused_at_stage() {
    let (mut t, c, filter) = figure_7_on_gre();
    let before = config_of(&t, c);
    let from_a = filter(&ModuleRef::new(ModuleKind::Ip, ModuleId(4), t.core[0]));
    let in_use = Refusal {
        device: c,
        component: from_a.component(),
        cause: RefusalCause::Module(ModuleError::FilterInUse),
    };
    let twice = script_on(c, vec![from_a.clone(), from_a]);
    let outcome = t.mn.run_batch(&[(GoalId(7), &twice)]);
    assert_eq!(outcome.failed, [(GoalId(7), in_use)]);
    assert_eq!(config_of(&t, c), before);
    assert_eq!(t.mn.audit(), []);
}

/// The same regression across two goals of one batch: the first commits,
/// the second is refused, and the first's teardown leaves nothing behind.
#[test]
fn a_filter_created_by_two_goals_of_one_batch_is_refused_for_the_second() {
    let (mut t, c, filter) = figure_7_on_gre();
    let before = config_of(&t, c);
    let from_a = filter(&ModuleRef::new(ModuleKind::Ip, ModuleId(4), t.core[0]));
    let in_use = Refusal {
        device: c,
        component: from_a.component(),
        cause: RefusalCause::Module(ModuleError::FilterInUse),
    };
    let once = script_on(c, vec![from_a]);
    let outcome = t.mn.run_batch(&[(GoalId(8), &once), (GoalId(9), &once)]);
    assert_eq!(outcome.committed, [GoalId(8)]);
    assert_eq!(outcome.failed, [(GoalId(9), in_use)]);
    assert_eq!(t.mn.net.device(c).expect("C").config.filters.len(), 1);
    t.mn.run_teardown_batch(&[(GoalId(8), once.teardown())], &[]);
    assert_eq!(config_of(&t, c), before);
    assert_eq!(t.mn.audit(), []);
}

/// Regression: a gateway rule whose gateway did not parse committed `Ok`
/// and waited for good, unlisted.  It now fails its goal at stage with its
/// own `ModuleError`, and the device is left as it was.
#[test]
fn a_gateway_that_does_not_parse_fails_its_goal() {
    use conman::core::ids::PipeId;
    use conman::core::module::SwitchField;
    use conman::core::primitives::{PipeSpec, ResolvedName, SwitchSpec};

    let mut t = managed_chain(3);
    t.discover();
    let ingress = t.core[0];
    let before = config_of(&t, ingress);
    let find = |kind| t.mn.nm.find_module(ingress, &kind).expect("a module");
    let (module, eth) = (find(ModuleKind::Ip), find(ModuleKind::Eth));
    // The customer-side pipe, then the rule back to it through `gateway`.
    let pipe = PipeSpec {
        pipe: PipeId(7000),
        upper: module,
        lower: eth,
        peer_upper: None,
        peer_lower: None,
        peer_pipe: None,
        tradeoffs: vec![],
        initiate: false,
    };
    let rule = Primitive::CreateSwitch(SwitchSpec {
        module,
        in_pipe: PipeId(7001),
        out_pipe: PipeId(7000),
        dst_class: None,
        gateway: Some(ResolvedName {
            name: "S1-gateway".into(),
            value: "S1-gateway".into(),
        }),
        local_prefix: Some("10.0.1.0/24".into()),
    });
    let refusal = Refusal {
        device: ingress,
        component: rule.component(),
        cause: RefusalCause::Module(ModuleError::BadSwitchField(SwitchField::Gateway)),
    };
    let scripts = script_on(ingress, vec![Primitive::CreatePipe(pipe), rule]);
    let outcome = t.mn.run_batch(&[(GoalId(1), &scripts)]);
    assert_eq!(outcome.failed, [(GoalId(1), refusal)]);
    assert_eq!(config_of(&t, ingress), before, "the device is unchanged");
    assert_eq!(t.mn.audit(), []);
}

/// A component deleted behind the store's back is claimed and no longer
/// listed: the audit reports it missing.
#[test]
fn a_component_deleted_behind_the_stores_back_is_missing() {
    let mut t = managed_chain(3);
    t.discover();
    let id = t.mn.submit(t.vpn_goal());
    assert!(t.mn.reconcile().converged());
    let applied = t.mn.goals.get(id).and_then(|rec| rec.applied());
    let claims = applied.expect("the goal is applied").scripts.components();
    let (device, component) = (claims.into_iter())
        .find(|(_, c)| matches!(c, ComponentRef::SwitchRule(..)))
        .expect("the plan claims a switch rule");
    let delete = vec![(device, vec![Primitive::Delete(component.clone())])];
    let torn = t.mn.run_teardown_batch(&[(id, delete)], &[]);
    assert!(torn.skipped.is_empty());
    let missing = PlanViolation::MissingDeviceState { device, component };
    assert_eq!(t.mn.audit(), [missing]);
}

/// A testbed three concurrent goals fit on, as the scenario below sees it.
struct ThreeGoals<'a, T> {
    t: &'a mut T,
    mn: fn(&mut T) -> &mut ManagedNetwork<OutOfBandChannel>,
    devices: Vec<DeviceId>,
    goals: [ConnectivityGoal; 3],
    /// Does goal `k` carry traffic end to end?
    carries: fn(&mut T, usize) -> bool,
}

/// Install three goals (each on its `technology` path when one is named,
/// on the path `reconcile()` prefers otherwise), withdraw the middle one and
/// hold, at every step, that the devices hold exactly what the applied plans
/// claim: after the withdraw no device keeps a component of the released
/// block, and both survivors still carry traffic.
fn withdraw_the_middle_of_three<T>(s: ThreeGoals<'_, T>, technology: Option<&str>) {
    let case = technology.unwrap_or("preferred");
    let mn = (s.mn)(s.t);
    let ids = s.goals.map(|goal| mn.submit(goal));
    match technology {
        None => assert_eq!(mn.reconcile().active(), 3, "every goal converges"),
        Some(technology) => ids.iter().for_each(|id| install_on(mn, *id, technology)),
    }
    assert_eq!(mn.audit(), [], "{case}");

    let released = mn.goals.get(ids[1]).expect("goal exists").applied();
    let released = released.expect("the goal is applied").scripts.components();
    assert!(mn.withdraw(ids[1]).removed);
    assert_eq!(mn.audit(), [], "{case}");
    for d in &s.devices {
        let modules = mn
            .show_actual(&[*d])
            .remove(d)
            .expect("a live device answers");
        let kept: Vec<_> = (modules.iter())
            .flat_map(|(module, actual)| actual.components(module))
            .filter(|c| released.contains(&(*d, c.clone())))
            .collect();
        assert!(kept.is_empty(), "{d} kept {kept:?} of the released block");
    }
    for k in [0, 2] {
        assert!(
            (s.carries)(s.t, k),
            "survivor {k} lost its traffic ({case})"
        );
    }

    let mn = (s.mn)(s.t);
    assert!(mn
        .withdraw_many(&[ids[0], ids[2]])
        .iter()
        .all(|w| w.removed));
    assert_eq!(mn.audit(), [], "{case}");
}

#[test]
fn withdrawing_the_middle_of_three_goals_leaves_no_device_a_component_of_its_block() {
    let technologies = |mn: &ManagedNetwork<OutOfBandChannel>, goal: &ConnectivityGoal| {
        let paths = mn.nm.find_paths(goal);
        let labels: BTreeSet<String> = paths.iter().map(|p| p.technology_label()).collect();
        assert_eq!(labels.len(), 5, "{labels:?}");
        labels
    };

    // The Figure 4 chain, the 10-router chain and the 2×3 mesh each offer
    // all five technologies.
    for n in [3, 10] {
        let chain = || {
            let mut t = managed_fanout_chain(n, 3);
            t.discover();
            t
        };
        let t = chain();
        for technology in technologies(&t.mn, &t.fanout_goal(0)) {
            let mut t = chain();
            let scenario = ThreeGoals {
                devices: t.core.clone(),
                goals: [0, 1, 2].map(|k| t.fanout_goal(k)),
                t: &mut t,
                mn: |t| &mut t.mn,
                carries: |t, k| t.probe_pair(k),
            };
            withdraw_the_middle_of_three(scenario, Some(&technology));
        }
    }

    let mesh = || {
        let mut t = managed_mesh_fanout(3, 3);
        t.discover();
        t
    };
    let t = mesh();
    for technology in technologies(&t.mn, &t.fanout_goal(0)) {
        let mut t = mesh();
        let scenario = ThreeGoals {
            devices: t.routers().to_vec(),
            goals: [0, 1, 2].map(|k| t.fanout_goal(k)),
            t: &mut t,
            mn: |t| &mut t.mn,
            carries: |t, k| t.probe_pair(k),
        };
        withdraw_the_middle_of_three(scenario, Some(&technology));
    }

    // The VLAN chain has one customer port pair: three goals share it, and
    // the frame stays tunnelled for as long as one of them is installed.
    let mut t = managed_vlan_chain(3);
    t.discover();
    let scenario = ThreeGoals {
        devices: t.switches.clone(),
        goals: [0, 1, 2].map(|_| t.vlan_goal()),
        t: &mut t,
        mn: |t| &mut t.mn,
        carries: |t, _| {
            let (delivered, trace) = t.send_customer_frame(b"still tunnelled");
            delivered && trace.iter().any(|p| p.contains("VLAN(22)"))
        },
    };
    withdraw_the_middle_of_three(scenario, None);
}

/// NM messages sent and received, module relays the NM received and
/// forwarded, and notifications, over one churn operation.
type OpFlow = (u64, u64, u64, u64, u64);

#[test]
fn churned_fleet_keeps_every_survivor_up_and_its_message_flow_to_the_envelope() {
    const FLEET: usize = 48;
    const CHURN: usize = 4;
    const OPS: usize = 20;
    /// What every operation costs once a device answers the NM once per
    /// round: the NM receives exactly as many relay messages as it sends,
    /// and nothing may move the flow by one message.
    const EXPECTED: OpFlow = (34, 34, 20, 20, 0);

    let mut t = managed_fanout_chain(6, FLEET + OPS * CHURN);
    t.discover();
    t.mn.goals.limits = conman_bench::diagnosis::chain_limits(6);
    let recorder = Recorder::new();
    t.mn.set_recorder(recorder.clone());
    // Live goals with the fan-out pair that probes each.
    let mut live: Vec<_> = (0..FLEET)
        .map(|k| (t.mn.submit(t.fanout_goal(k)), k))
        .collect();
    assert_eq!(t.mn.reconcile().active(), FLEET);

    let relays = |dir: &str| {
        recorder.counter(&format!("msg.{dir}.ConveyMessage"))
            + recorder.counter(&format!("msg.{dir}.FieldQuery"))
    };
    let flow = |t: &Chain| -> OpFlow {
        let nm = t.mn.nm_counters();
        (
            nm.sent,
            nm.received,
            relays("received"),
            relays("sent"),
            recorder.counter("mgmt.notifications"),
        )
    };
    let mut victims = proptest::TestRng::deterministic("churned fleet");
    for op in 0..OPS {
        let before = flow(&t);
        let gone: Vec<_> = (0..CHURN)
            .map(|_| live.swap_remove(victims.below(live.len() as u64) as usize))
            .collect();
        let ids: Vec<_> = gone.iter().map(|(id, _)| *id).collect();
        assert!(t.mn.withdraw_many(&ids).iter().all(|w| w.removed));
        for k in FLEET + op * CHURN..FLEET + (op + 1) * CHURN {
            live.push((t.mn.submit(t.fanout_goal(k)), k));
        }
        assert_eq!(t.mn.reconcile().active(), FLEET, "op {op} converges");
        let after = flow(&t);
        let spent = (
            after.0 - before.0,
            after.1 - before.1,
            after.2 - before.2,
            after.3 - before.3,
            after.4 - before.4,
        );
        assert_eq!(spent, EXPECTED, "op {op}: message flow moved");

        let idle = t.mn.reconcile();
        assert_eq!((idle.nm_sent, idle.transactions), (0, 0), "op {op}: idle");
        for (_, k) in &live {
            assert!(t.probe_pair(*k), "op {op}: survivor {k} lost its VPN");
        }
        for (_, k) in &gone {
            assert!(!t.probe_pair(*k), "op {op}: victim {k} still connected");
        }
    }
    assert_eq!(recorder.counter("mgmt.round_cap_hit"), 0);
    assert_eq!(t.mn.audit(), []);
}

//! Equivalence suite for the raw-speed reconcile engine.
//!
//! The worker pool (`reconcile`) and the one-worker run of the same engine
//! (`reconcile_sequential`, which spawns no thread) must be *observably
//! identical*: same `ReconcileReport`s, byte-identical trace journals, same
//! NM wire-message counts — on fresh chain and mesh fleets, under a
//! mid-batch device crash, with goals crossing the same devices in opposite
//! directions in one batch, and when every goal's exclusions force the
//! suspect-fallback.  The one binary codec keeps the message counts and
//! outcomes the JSON codec it replaced had, at less than half its bytes.
//! Random fleets are covered by proptests that also feed the
//! planned batch through the plan checks (`verify_plans`) and compare each
//! goal's applied path and status against `reconcile_per_goal`, the
//! memo-free oracle that rebuilds the potential graph for every goal.
//!
//! Every scenario runs twin testbeds built identically, so any divergence
//! between the engines shows up as a journal or report diff.  The pool runs
//! each transaction round's agents side by side too, so three scenarios
//! hold those rounds to the sequential ones: a goal refused at commit,
//! whose nested rollback's teardown rounds fan out; a chain whose NM host
//! is itself a managed router, so each round splits around the host's own
//! turn; and the in-band channel.

use conman::core::nm::{
    script, ConnectivityGoal, Exclusion, GoalFailure, GoalId, GoalStatus, ModulePath,
};
use conman::core::primitives::RefusalCause;
use conman::core::runtime::verify::PlanViolation;
use conman::core::runtime::{
    ChannelCounters, ManagedNetwork, ReconcileAction, ReconcileReport, TxnEvent,
};
use conman::modules::{
    managed_chain, managed_fanout_chain, managed_fanout_chain_with, managed_mesh_fanout,
    ManagedChain, ManagedMesh,
};
use conman_bench::assert_journal_conforms;
use conman_bench::control_loop::mesh_limits;
use conman_bench::diagnosis::chain_limits;
use conman_obs::{Recorder, TraceKind};
use mgmt_channel::{InBandChannel, ManagementChannel, OutOfBandChannel};
use netsim::device::DeviceId;
use netsim::network::Network;
use proptest::prelude::*;
use std::collections::BTreeSet;

type Chain = ManagedChain<OutOfBandChannel>;
type Mesh = ManagedMesh<OutOfBandChannel>;

/// A fan-out chain twin: `goals` submitted, limits set, recorder attached.
fn chain_twin(n: usize, goals: usize) -> Chain {
    ready_chain(managed_fanout_chain(n, goals), n, goals)
}

/// Ready a fan-out chain over any channel: discovered, limits set, `goals`
/// submitted, recorder attached.
fn ready_chain<C: ManagementChannel>(
    mut t: ManagedChain<C>,
    n: usize,
    goals: usize,
) -> ManagedChain<C> {
    t.discover();
    t.mn.goals.limits = chain_limits(n);
    for k in 0..goals {
        let goal = t.fanout_goal(k);
        t.mn.submit(goal);
    }
    t.mn.set_recorder(Recorder::new());
    t
}

/// A multipath-mesh twin, same shape.
fn mesh_twin(k: usize, goals: usize) -> Mesh {
    let mut t = managed_mesh_fanout(k, goals);
    t.discover();
    t.mn.goals.limits = mesh_limits(k);
    for g in 0..goals {
        let goal = t.fanout_goal(g);
        t.mn.submit(goal);
    }
    t.mn.set_recorder(Recorder::new());
    t
}

/// Everything an engine run exposes to the outside world, device audit last.
struct Observed {
    report: String,
    journal: String,
    nm_sent: u64,
    nm_received: u64,
    counters: ChannelCounters,
    audit: Vec<PlanViolation>,
}

fn observe<C: ManagementChannel>(report: &ReconcileReport, mn: &mut ManagedNetwork<C>) -> Observed {
    Observed {
        report: format!("{report:?}"),
        journal: mn.recorder.journal_json(),
        nm_sent: report.nm_sent,
        nm_received: report.nm_received,
        counters: mn.nm_counters(),
        audit: mn.audit(),
    }
}

/// Assert the parallel and sequential observations are identical, the
/// (shared) journal conforms and both audits find `audit`.
fn assert_twins_equal(par: &Observed, seq: &Observed, what: &str, audit: &[PlanViolation]) {
    assert_eq!(
        par.report, seq.report,
        "{what}: ReconcileReports must be identical"
    );
    assert_eq!(
        par.journal, seq.journal,
        "{what}: journals must be byte-identical"
    );
    assert_eq!(
        (par.nm_sent, par.nm_received),
        (seq.nm_sent, seq.nm_received),
        "{what}: NM wire-message counts must match"
    );
    assert_eq!(
        par.counters, seq.counters,
        "{what}: NM counters must match, category by category"
    );
    assert_eq!((&par.audit[..], &seq.audit[..]), (audit, audit), "{what}");
    assert_journal_conforms(&par.journal, what);
}

/// Each goal's status and applied path, in id order: what the per-goal
/// oracle must reproduce, though its message shape differs from a batch's.
fn applied_paths(mn: &ManagedNetwork<OutOfBandChannel>) -> Vec<(GoalStatus, Option<ModulePath>)> {
    mn.goals
        .iter()
        .map(|rec| {
            (
                rec.status,
                rec.applied().map(|applied| applied.path.clone()),
            )
        })
        .collect()
}

#[test]
fn parallel_equals_sequential_on_a_fresh_chain_fleet() {
    let mut a = chain_twin(4, 3);
    let mut b = chain_twin(4, 3);
    let ra = a.mn.reconcile();
    let rb = b.mn.reconcile_sequential();
    assert!(ra.converged(), "parallel pass converges");
    assert!(rb.converged(), "sequential pass converges");
    let par = observe(&ra, &mut a.mn);
    let seq = observe(&rb, &mut b.mn);
    assert_twins_equal(&par, &seq, "fresh chain fleet", &[]);
    assert!(par.journal.len() > 2, "the pass journals real events");
    // A second pass is a no-op on both engines.
    let ra2 = a.mn.reconcile();
    let rb2 = b.mn.reconcile_sequential();
    assert_eq!(ra2.transactions, 0);
    assert_eq!(
        format!("{ra2:?}"),
        format!("{rb2:?}"),
        "idempotent passes must also match"
    );
}

#[test]
fn parallel_equals_sequential_on_a_multipath_mesh_fleet() {
    let mut a = mesh_twin(3, 3);
    let mut b = mesh_twin(3, 3);
    let ra = a.mn.reconcile();
    let rb = b.mn.reconcile_sequential();
    assert!(ra.converged(), "parallel pass converges");
    let par = observe(&ra, &mut a.mn);
    let seq = observe(&rb, &mut b.mn);
    assert_twins_equal(&par, &seq, "mesh fleet", &[]);
}

/// Crash the middle router between staging and its commit, identically on
/// both twins: the batch's per-goal rollback and restore bookkeeping must
/// behave the same under both planning engines.
fn install_mid_batch_crash(t: &mut Chain) {
    let b = t.core[1];
    t.mn.txn_hook = Some(Box::new(move |event, net| {
        let TxnEvent::BeforeCommit { device, .. } = event;
        if *device == b {
            net.set_device_up(b, false);
        }
    }));
}

#[test]
fn parallel_equals_sequential_under_a_mid_batch_device_crash() {
    let mut a = chain_twin(3, 2);
    let mut b = chain_twin(3, 2);
    install_mid_batch_crash(&mut a);
    install_mid_batch_crash(&mut b);
    let ra = a.mn.reconcile();
    let rb = b.mn.reconcile_sequential();
    assert!(
        !ra.converged(),
        "the crash must actually fail the pass: {ra:#?}"
    );
    let par = observe(&ra, &mut a.mn);
    let seq = observe(&rb, &mut b.mn);
    let crashed = [PlanViolation::DeviceSilent { device: a.core[1] }];
    assert_twins_equal(&par, &seq, "mid-batch device crash", &crashed);
}

/// The forward goal's mirror image: same interfaces and classes, traversed
/// in the opposite direction — the construction whose exchanges run between
/// the same modules as the forward goal's, the other way, in one commit
/// wave.
fn reversed(goal: &ConnectivityGoal) -> ConnectivityGoal {
    let mut g = goal.clone();
    std::mem::swap(&mut g.from, &mut g.to);
    std::mem::swap(&mut g.src_class, &mut g.dst_class);
    std::mem::swap(&mut g.src_gateway, &mut g.dst_gateway);
    g
}

fn opposite_direction_twin() -> Chain {
    let mut t = managed_chain(3);
    t.discover();
    let fwd = t.vpn_goal();
    let rev = reversed(&fwd);
    t.mn.submit(fwd);
    t.mn.submit(rev);
    t.mn.set_recorder(Recorder::new());
    t
}

#[test]
fn parallel_equals_sequential_with_opposite_direction_goals() {
    let mut a = opposite_direction_twin();
    let mut b = opposite_direction_twin();
    let ra = a.mn.reconcile();
    let rb = b.mn.reconcile_sequential();
    assert!(ra.converged(), "both directions converge: {ra:#?}");
    let par = observe(&ra, &mut a.mn);
    let seq = observe(&rb, &mut b.mn);
    // Both goals share one batch: each of the three routers stages both
    // segments at once, and no goal runs as a transaction of its own.
    assert!(
        !par.journal.contains("\"segments\":1"),
        "opposite-direction goals share every stage: {}",
        par.journal
    );
    assert_eq!(par.journal.matches("\"segments\":2").count(), 3);
    assert_twins_equal(&par, &seq, "opposite-direction goals", &[]);
}

/// A converged fleet whose every goal blames the whole middle router: no
/// path avoids it, so each goal takes the suspect-fallback — reinstalled
/// straight through the router, its exclusions cleared.
fn fleet_blaming_the_middle_router() -> Chain {
    let mut t = chain_twin(4, 3);
    assert!(t.mn.reconcile().converged(), "the fleet converges first");
    let excluded: BTreeSet<Exclusion> = t.mn.nm.abstractions[&t.core[1]]
        .iter()
        .map(|a| Exclusion::Module(a.name))
        .collect();
    for id in t.mn.goals.ids() {
        assert!(t.mn.goals.mark_degraded(id, excluded.clone()));
    }
    t
}

#[test]
fn parallel_equals_sequential_through_the_suspect_fallback() {
    let mut a = fleet_blaming_the_middle_router();
    let mut b = fleet_blaming_the_middle_router();
    let mut c = fleet_blaming_the_middle_router();
    let ra = a.mn.reconcile();
    let rb = b.mn.reconcile_sequential();
    let rc = c.mn.reconcile_per_goal();
    for (report, t) in [(&ra, &a), (&rb, &b), (&rc, &c)] {
        assert!(
            report
                .outcomes
                .iter()
                .all(|o| o.action == ReconcileAction::Reapplied),
            "every goal is reinstalled through the suspects: {report:#?}"
        );
        assert!(
            t.mn.goals.iter().all(|rec| rec.excluded.is_empty()),
            "the fallback cleared every goal's exclusions"
        );
    }
    let par = observe(&ra, &mut a.mn);
    let seq = observe(&rb, &mut b.mn);
    assert_twins_equal(&par, &seq, "suspect-fallback", &[]);
    assert_eq!(
        applied_paths(&a.mn),
        applied_paths(&c.mn),
        "the per-goal oracle applies the same path per goal"
    );
}

/// Two goals over the 2×3 mesh, the first kept to the upper row and the
/// second to the lower (each avoids the other row's edge links and every
/// cross-link), and the lower row's middle router rebooted right before
/// its commit: it holds nothing staged any more, so it refuses the second
/// goal at commit, and every other router of that goal's path rolls it
/// back in a nested teardown transaction, whose rounds fan out too.
fn refused_at_commit_twin() -> Mesh {
    let mut t = mesh_twin(3, 2);
    let (ingress, egress) = (t.ingress, t.egress);
    let cross: Vec<Exclusion> = (t.upper.iter().zip(&t.lower))
        .map(|(&u, &l)| Exclusion::link(u, l))
        .collect();
    let avoiding = |row: &[DeviceId]| -> BTreeSet<Exclusion> {
        let edges = [
            Exclusion::link(ingress, row[0]),
            Exclusion::link(row[2], egress),
        ];
        cross.iter().cloned().chain(edges).collect()
    };
    let (upper, lower) = (avoiding(&t.lower), avoiding(&t.upper));
    assert!(t.mn.goals.mark_degraded(GoalId(1), upper));
    assert!(t.mn.goals.mark_degraded(GoalId(2), lower));
    let rebooted = t.lower[1];
    let mut armed = true;
    t.mn.txn_hook = Some(Box::new(move |event, net| {
        let TxnEvent::BeforeCommit { device, .. } = event;
        if armed && *device == rebooted {
            armed = false;
            net.set_device_up(rebooted, false);
            net.set_device_up(rebooted, true);
        }
    }));
    t
}

#[test]
fn parallel_equals_sequential_when_a_goal_is_refused_at_commit() {
    let mut a = refused_at_commit_twin();
    let mut b = refused_at_commit_twin();
    let ra = a.mn.reconcile();
    let rb = b.mn.reconcile_sequential();
    let applied = ra.outcome(GoalId(1)).expect("goal 1");
    assert_eq!(applied.action, ReconcileAction::Applied, "{ra:#?}");
    let refused = ra.outcome(GoalId(2)).expect("goal 2");
    let Some(GoalFailure::Refused(refusal)) = &refused.error else {
        panic!("goal 2 must be refused: {ra:#?}");
    };
    assert_eq!(
        (refusal.device, &refusal.cause),
        (a.lower[1], &RefusalCause::NeverStaged),
        "refused at commit by the rebooted router"
    );
    // The batch and its rollback: two transactions, each staged.
    let txns: BTreeSet<u64> = (a.mn.recorder.journal_events().iter())
        .filter_map(|e| match e.kind {
            TraceKind::StageDevice { txn, .. } => Some(txn),
            _ => None,
        })
        .collect();
    assert_eq!(txns.len(), 2, "the batch and its rollback");
    let par = observe(&ra, &mut a.mn);
    let seq = observe(&rb, &mut b.mn);
    assert_twins_equal(&par, &seq, "a goal refused at commit", &[]);
}

/// A fan-out chain twin whose NM runs on a core router it also manages,
/// picked so that managed routers sort on both sides of it: every round
/// splits around the host's own turn.
fn hosted_chain_twin(n: usize, goals: usize) -> Chain {
    let mut t = managed_fanout_chain(n, goals);
    let mut routers = t.core.clone();
    routers.sort();
    let host = routers[routers.len() / 2];
    let net = std::mem::replace(&mut t.mn.net, Network::new());
    let agents = std::mem::take(&mut t.mn.agents);
    t.mn = ManagedNetwork::new(net, host, OutOfBandChannel::new());
    t.mn.agents = agents;
    let managed: Vec<DeviceId> = t.mn.agents.keys().copied().collect();
    assert!(managed.first() < Some(&host) && managed.last() > Some(&host));
    ready_chain(t, n, goals)
}

#[test]
fn parallel_equals_sequential_when_the_nm_host_is_a_managed_router() {
    let mut a = hosted_chain_twin(4, 3);
    let mut b = hosted_chain_twin(4, 3);
    let ra = a.mn.reconcile();
    let rb = b.mn.reconcile_sequential();
    assert!(ra.converged(), "the hosted chain converges: {ra:#?}");
    let par = observe(&ra, &mut a.mn);
    let seq = observe(&rb, &mut b.mn);
    assert_twins_equal(&par, &seq, "NM host managed", &[]);
}

#[test]
fn parallel_equals_sequential_over_the_in_band_channel() {
    let twin = || ready_chain(managed_fanout_chain_with(3, 2, InBandChannel::new()), 3, 2);
    let (mut a, mut b) = (twin(), twin());
    let ra = a.mn.reconcile();
    let rb = b.mn.reconcile_sequential();
    assert!(ra.converged(), "the in-band chain converges: {ra:#?}");
    let par = observe(&ra, &mut a.mn);
    let seq = observe(&rb, &mut b.mn);
    assert_twins_equal(&par, &seq, "in-band channel", &[]);
    assert_eq!(
        (a.mn.channel.bytes_flooded, a.mn.channel.frames_flooded),
        (b.mn.channel.bytes_flooded, b.mn.channel.frames_flooded),
        "the floods match too"
    );
}

/// What this fleet's pass cost under the JSON codec the binary one
/// replaced: 14 messages sent, 15 received, every goal applied, and 19 344
/// bytes of batch messages.
#[test]
fn binary_codec_matches_json_counts_and_end_state() {
    const JSON_BATCH_BYTES: u64 = 19_344;
    let mut bin = chain_twin(4, 3);
    let rb = bin.mn.reconcile();
    assert!(rb.converged());
    // The codec changes payload bytes, never message counts or outcomes.
    assert_eq!((rb.transactions, rb.nm_sent, rb.nm_received), (1, 14, 15));
    assert!(
        rb.outcomes
            .iter()
            .all(|o| o.action == ReconcileAction::Applied && o.status == GoalStatus::Active),
        "{rb:#?}"
    );
    // ...but the binary batches really are smaller on the wire.
    let bb = bin.mn.recorder.counter("txn.encode_bytes");
    assert!(
        bb * 2 < JSON_BATCH_BYTES,
        "binary batch encoding must be less than half the JSON size: {bb} vs {JSON_BATCH_BYTES}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random fan-out chain fleets: the parallel engine is byte-identical
    /// to the sequential oracle, the journal conforms, the per-goal oracle
    /// applies the same path per goal, and the fleet's plans (identical
    /// under both engines, as the journal equality proves) pass
    /// `verify_plans` with zero violations.
    #[test]
    fn random_chain_fleets_plan_identically_and_verify_clean(n in 3usize..6, goals in 1usize..5) {
        let mut a = chain_twin(n, goals);
        let mut b = chain_twin(n, goals);
        let ra = a.mn.reconcile();
        let rb = b.mn.reconcile_sequential();
        prop_assert!(ra.converged(), "parallel pass converges: {ra:#?}");
        let par = observe(&ra, &mut a.mn);
        let seq = observe(&rb, &mut b.mn);
        prop_assert_eq!(&par.report, &seq.report, "reports diverged");
        prop_assert_eq!(&par.journal, &seq.journal, "journals diverged");
        prop_assert!(par.audit.is_empty() && seq.audit.is_empty(), "{:?} {:?}", par.audit, seq.audit);
        assert_journal_conforms(&par.journal, "random chain fleet");
        let mut d = chain_twin(n, goals);
        let rd = d.mn.reconcile_per_goal();
        prop_assert!(rd.converged(), "per-goal pass converges: {rd:#?}");
        prop_assert_eq!(applied_paths(&a.mn), applied_paths(&d.mn), "the per-goal oracle diverged");
        // The same fleet, planned the way the pass plans it, verifies clean.
        let mut c = chain_twin(n, goals);
        let mut plans = Vec::new();
        for id in c.mn.goals.ids() {
            let plan = c.mn.plan_goal(id).expect("a path exists");
            c.mn.goals.take_pipe_block(script::slot_count(&plan.path));
            plans.push(plan);
        }
        let violations = c.mn.verify_plans(&plans);
        prop_assert!(violations.is_empty(), "planned fleet must verify clean: {violations:?}");
    }

    /// The same equivalence on random multipath-mesh fleets.
    #[test]
    fn random_mesh_fleets_plan_identically_and_verify_clean(k in 2usize..4, goals in 1usize..4) {
        let mut a = mesh_twin(k, goals);
        let mut b = mesh_twin(k, goals);
        let ra = a.mn.reconcile();
        let rb = b.mn.reconcile_sequential();
        prop_assert!(ra.converged(), "parallel pass converges: {ra:#?}");
        let par = observe(&ra, &mut a.mn);
        let seq = observe(&rb, &mut b.mn);
        prop_assert_eq!(&par.report, &seq.report, "reports diverged");
        prop_assert_eq!(&par.journal, &seq.journal, "journals diverged");
        prop_assert!(par.audit.is_empty() && seq.audit.is_empty(), "{:?} {:?}", par.audit, seq.audit);
        assert_journal_conforms(&par.journal, "random mesh fleet");
        let mut d = mesh_twin(k, goals);
        let rd = d.mn.reconcile_per_goal();
        prop_assert!(rd.converged(), "per-goal pass converges: {rd:#?}");
        prop_assert_eq!(applied_paths(&a.mn), applied_paths(&d.mn), "the per-goal oracle diverged");
        let mut c = mesh_twin(k, goals);
        let mut plans = Vec::new();
        for id in c.mn.goals.ids() {
            let plan = c.mn.plan_goal(id).expect("a path exists");
            c.mn.goals.take_pipe_block(script::slot_count(&plan.path));
            plans.push(plan);
        }
        let violations = c.mn.verify_plans(&plans);
        prop_assert!(violations.is_empty(), "planned fleet must verify clean: {violations:?}");
    }
}

//! Deterministic tick-by-tick tests for the autonomic control loop.
//!
//! Everything here runs on the simulated clock: a fault injected after
//! tick `T` is detected by tick `T+1`'s health round and repaired within a
//! bounded tick budget, a converged loop sends zero management messages,
//! simultaneous faults on different goals heal independently, an operator
//! withdraw cancels an in-flight repair cleanly, and a goal whose every
//! repair fails lands in `Failed` instead of thrashing forever.
//!
//! The mesh scenarios exercise link-suspect-aware planning: on the
//! multipath topologies a blamed core link is rerouted around in **one**
//! batched pass (no repair-budget burn), while the same blame on a chain —
//! which has no alternative — falls back to reinstall-through instead of
//! parking the goal `Failed`.

use conman::core::nm::{GoalFailure, GoalId, GoalStatus, GoalStore, PathFinderLimits};
use conman::core::runtime::{
    ControlLoop, GoalEndpoints, LoopClient, LoopConfig, ManagedNetwork, ReconcileAction,
};
use conman::diagnose::AutonomicClient;
use conman::modules::{
    managed_fanout_chain, managed_fanout_chain_with, managed_mesh_fanout, ManagedChain, ManagedMesh,
};
use conman::netsim::device::DeviceId;
use conman::netsim::fault::{apply_fault, FaultKind, Misconfiguration};
use conman::netsim::route::RouteTableId;
use conman::obs::{Recorder, TraceKind};
use conman_bench::control_loop::mesh_limits;
use mgmt_channel::{InBandChannel, ManagementChannel, MessageCategory, OutOfBandChannel};
use std::collections::BTreeMap;

type Chain = ManagedChain<OutOfBandChannel>;
type Mesh = ManagedMesh<OutOfBandChannel>;

/// A discovered fan-out chain with `goals` goals submitted and tracked by a
/// fresh control loop (not yet converged).
fn looped_chain(n: usize, goals: usize) -> (Chain, ControlLoop<OutOfBandChannel>, Vec<GoalId>) {
    looped_chain_with(managed_fanout_chain(n, goals), n, goals)
}

/// [`looped_chain`] over whichever management channel `t` was built with.
fn looped_chain_with<C: ManagementChannel>(
    mut t: ManagedChain<C>,
    n: usize,
    goals: usize,
) -> (ManagedChain<C>, ControlLoop<C>, Vec<GoalId>) {
    t.discover();
    t.mn.goals.limits = PathFinderLimits {
        max_steps: 3 * n + 16,
        max_paths: 32,
    };
    let mut cl = ControlLoop::new(&t.mn, LoopConfig::default())
        .with_client(Box::new(AutonomicClient::new(2)));
    let mut ids = Vec::new();
    for k in 0..goals {
        let (src, dst, dst_ip) = t.fanout_probe(k);
        let id = t.mn.submit(t.fanout_goal(k));
        cl.track(id, GoalEndpoints { src, dst, dst_ip });
        ids.push(id);
    }
    (t, cl, ids)
}

/// A discovered 2×k mesh with `goals` goals submitted and tracked by a
/// fresh control loop (not yet converged).
fn looped_mesh(k: usize, goals: usize) -> (Mesh, ControlLoop<OutOfBandChannel>, Vec<GoalId>) {
    let mut t = managed_mesh_fanout(k, goals);
    t.discover();
    t.mn.goals.limits = mesh_limits(k);
    let mut cl = ControlLoop::new(&t.mn, LoopConfig::default())
        .with_client(Box::new(AutonomicClient::new(2)));
    let mut ids = Vec::new();
    for g in 0..goals {
        let (src, dst, dst_ip) = t.fanout_probe(g);
        let id = t.mn.submit(t.fanout_goal(g));
        cl.track(id, GoalEndpoints { src, dst, dst_ip });
        ids.push(id);
    }
    (t, cl, ids)
}

/// The derived route-table range of a goal's applied pipe block (via the
/// IP module's authoritative numbering).
fn goal_tables(mn: &ManagedNetwork<OutOfBandChannel>, id: GoalId) -> (RouteTableId, RouteTableId) {
    let applied = mn.goals.get(id).and_then(|r| r.applied()).expect("applied");
    conman::modules::derived_table_range(
        applied.pipe_base,
        conman::core::nm::script::slot_count(&applied.path),
    )
}

#[test]
fn fault_after_tick_t_is_detected_and_repaired_within_two_ticks() {
    let (mut t, mut cl, _ids) = looped_chain(4, 2);
    let setup = cl.run_until_converged(&mut t.mn, 10);
    assert!(setup.converged, "setup converges");
    let fault_tick = cl.ticks();
    let (telemetry_before, _) = telemetry(&t.mn);

    // Core state loss on the mid-chain router, injected between ticks.
    lose_core_state(&mut t.mn, t.core[1]);

    let run = cl.run_until_converged(&mut t.mn, 6);
    assert!(run.converged, "the loop re-converges: {run:#?}");
    let detect = run.first_detection().expect("a health round detected");
    let repair = run.first_repair().expect("a repair pass converged");
    assert_eq!(detect, fault_tick + 1, "the very next health round detects");
    assert!(
        repair <= fault_tick + 2,
        "repair within two ticks of the fault (got tick {repair})"
    );
    assert!(
        (0..2).all(|k| t.probe_pair(k)),
        "traffic verified end to end"
    );
    // The only telemetry the NM sends is the diagnosis pull: once per tick
    // that diagnosed, one `PollCounters` per path device before every
    // degraded goal's probes and one after, each answered with the module
    // snapshots and the flow counters of every degraded goal.
    let diagnosing_ticks = run
        .ticks
        .iter()
        .filter(|tk| !tk.diagnosed.is_empty())
        .count();
    assert_eq!(
        telemetry(&t.mn).0 - telemetry_before,
        (diagnosing_ticks * 2 * t.core.len()) as u64
    );
    let after_repair = run.ticks.last().expect("the converged tick");
    assert_eq!(after_repair.events, 0, "no operator intent, no events");
    assert_eq!(t.mn.audit(), []);
}

/// `Telemetry` messages the NM has sent and received so far.
fn telemetry(mn: &ManagedNetwork<OutOfBandChannel>) -> (u64, u64) {
    let counters = mn.nm_counters();
    let of = |by: &BTreeMap<MessageCategory, u64>| {
        by.get(&MessageCategory::Telemetry).copied().unwrap_or(0)
    };
    (
        of(&counters.sent_by_category),
        of(&counters.received_by_category),
    )
}

/// Core state loss on `device`: its label maps and policy tables are gone.
fn lose_core_state<C: ManagementChannel>(mn: &mut ManagedNetwork<C>, device: DeviceId) {
    for kind in [
        Misconfiguration::ClearMplsState { device },
        Misconfiguration::FlushPolicyRouting { device },
    ] {
        apply_fault(&mut mn.net, FaultKind::Misconfigure(kind));
    }
}

#[test]
fn a_diagnosing_tick_polls_each_path_device_twice_for_any_number_of_degraded_goals() {
    for n in [2, 8, 32] {
        let (mut t, mut cl, ids) = looped_chain(4, n);
        assert!(cl.run_until_converged(&mut t.mn, 10).converged);
        lose_core_state(&mut t.mn, t.core[1]);
        let (goals, _) = split_by(&ids, |k| t.fanout_probe(k), |_| true);

        // One goal diagnosed on its own, on the faulted fleet, still polls
        // each of its path devices before and after its probes.
        let path_devices = t.mn.goals.get(ids[0]).and_then(|r| r.applied());
        let path_devices = path_devices.expect("applied").path.devices().len() as u64;
        let before = telemetry(&t.mn);
        let (goal, endpoints) = goals[0];
        let alone = AutonomicClient::new(2).localise(&mut t.mn, goal, endpoints, &goals[1..]);
        let after = telemetry(&t.mn);
        assert_eq!(alone.blamed, Some(t.core[1]), "n = {n}: {alone:?}");
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (2 * path_devices, 2 * path_devices),
            "n = {n}: one goal's diagnosis"
        );

        // The loop diagnoses all n degraded goals from one measurement.
        let before = telemetry(&t.mn);
        let tick = cl.tick(&mut t.mn);
        let after = telemetry(&t.mn);
        assert_eq!(tick.degraded, ids, "n = {n}: every goal crosses core[1]");
        assert_eq!(tick.diagnosed.len(), n);
        let want = (2 * t.core.len()) as u64;
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (want, want),
            "n = {n}: the diagnosing tick's telemetry"
        );
        for (goal, d) in &tick.diagnosed {
            assert_eq!(d.blamed, Some(t.core[1]), "n = {n}, goal {goal}: {d:?}");
        }
        assert_eq!(t.mn.audit(), []);
    }
}

/// Goals with their probe endpoints.
type Tracked = Vec<(GoalId, GoalEndpoints)>;

/// A faulted fleet, ready to diagnose: the network, the goals that degrade
/// and the goals that keep carrying traffic.
type Faulted = (ManagedNetwork<OutOfBandChannel>, Tracked, Tracked);

/// Build the same faulted fleet twice; diagnose the degraded goals all at
/// once through `localise_all` on one, one `localise` call per goal on the
/// other.  Every goal's verdict must be the same both ways.
fn assert_batch_matches_singletons(scenario: &str, build: impl Fn() -> Faulted) {
    let (mut batched, degraded, background) = build();
    let (mut single, ..) = build();
    let verdicts = AutonomicClient::new(2).localise_all(&mut batched, &degraded, &background);
    assert_eq!(verdicts.len(), degraded.len(), "{scenario}");
    for ((goal, together), &(id, ep)) in verdicts.iter().zip(&degraded) {
        assert_eq!(*goal, id, "{scenario}");
        let alone = AutonomicClient::new(2).localise(&mut single, id, ep, &background);
        assert!(
            together.blamed.is_some(),
            "{scenario}: goal {id} blamed nothing"
        );
        assert_eq!(
            (together.blamed, together.blamed_link, &together.excluded),
            (alone.blamed, alone.blamed_link, &alone.excluded),
            "{scenario}: goal {id}: {together:?} vs {alone:?}"
        );
    }
    assert_eq!(batched.audit(), [], "{scenario}");
    assert_eq!(single.audit(), [], "{scenario}");
}

/// Split `ids` into (faulted, healthy), each with its probe endpoints.
fn split_by(
    ids: &[GoalId],
    probe: impl Fn(usize) -> (DeviceId, DeviceId, std::net::Ipv4Addr),
    faulted: impl Fn(GoalId) -> bool,
) -> (Tracked, Tracked) {
    ids.iter()
        .enumerate()
        .map(|(k, &id)| {
            let (src, dst, dst_ip) = probe(k);
            (id, GoalEndpoints { src, dst, dst_ip })
        })
        .partition(|(id, _)| faulted(*id))
}

#[test]
fn one_shared_measurement_blames_what_one_measurement_per_goal_blames() {
    assert_batch_matches_singletons("chain core state loss", || {
        let (mut t, mut cl, ids) = looped_chain(4, 4);
        assert!(cl.run_until_converged(&mut t.mn, 10).converged);
        lose_core_state(&mut t.mn, t.core[1]);
        let (degraded, background) = split_by(&ids, |k| t.fanout_probe(k), |_| true);
        (t.mn, degraded, background)
    });
    assert_batch_matches_singletons("two-goal ingress table flush", || {
        let (mut t, mut cl, ids) = looped_chain(4, 3);
        assert!(cl.run_until_converged(&mut t.mn, 10).converged);
        for &id in &ids[..2] {
            let (first, last) = goal_tables(&t.mn, id);
            apply_fault(
                &mut t.mn.net,
                FaultKind::Misconfigure(Misconfiguration::FlushRouteTables {
                    device: t.core[0],
                    first,
                    last,
                }),
            );
        }
        let (degraded, background) =
            split_by(&ids, |k| t.fanout_probe(k), |id| ids[..2].contains(&id));
        (t.mn, degraded, background)
    });
    assert_batch_matches_singletons("mesh link cut", || {
        let (mut t, mut cl, ids) = looped_mesh(2, 3);
        assert!(cl.run_until_converged(&mut t.mn, 10).converged);
        let hop = t.applied_core_hop(ids[0]).expect("core hop");
        let link = t.link(hop.0, hop.1).expect("link");
        apply_fault(&mut t.mn.net, FaultKind::LinkCut(link));
        let crosses = |id: GoalId| {
            let devices = t.mn.goals.get(id).and_then(|r| r.applied());
            let devices = devices.expect("applied").path.devices();
            devices
                .windows(2)
                .any(|w| (w[0], w[1]) == hop || (w[1], w[0]) == hop)
        };
        let (degraded, background) = split_by(&ids, |k| t.fanout_probe(k), crosses);
        (t.mn, degraded, background)
    });
}

#[test]
fn a_converged_loop_sends_zero_reconfiguration_messages() {
    let (mut t, mut cl, _ids) = looped_chain(4, 3);
    assert!(cl.run_until_converged(&mut t.mn, 10).converged);
    for _ in 0..5 {
        let tick = cl.tick(&mut t.mn);
        assert_eq!(tick.nm_sent, 0, "a quiescent tick sends nothing: {tick:#?}");
        assert_eq!(tick.nm_received, 0);
        assert!(tick.quiescent());
        assert!(tick.repair.is_none(), "no repair pass runs when converged");
    }
    // The goals are still healthy — silence is convergence, not neglect.
    assert!((0..3).all(|k| t.probe_pair(k)));
    assert_eq!(t.mn.audit(), []);
}

#[test]
fn simultaneous_faults_on_different_goals_heal_independently() {
    let (mut t, mut cl, ids) = looped_chain(4, 3);
    assert!(cl.run_until_converged(&mut t.mn, 10).converged);

    // Two simultaneous per-goal faults: goals 0 and 1 each lose their own
    // derived route tables at the ingress edge (disjoint pipe blocks, so
    // disjoint table ranges).  Goal 2 keeps carrying traffic throughout —
    // per-goal state is the blast radius.
    for &id in &ids[..2] {
        let (first, last) = goal_tables(&t.mn, id);
        apply_fault(
            &mut t.mn.net,
            FaultKind::Misconfigure(Misconfiguration::FlushRouteTables {
                device: t.core[0],
                first,
                last,
            }),
        );
    }

    let run = cl.run_until_converged(&mut t.mn, 6);
    assert!(run.converged, "both repairs land: {run:#?}");
    let detect_tick = run
        .ticks
        .iter()
        .find(|tk| !tk.degraded.is_empty())
        .expect("detection happened");
    assert_eq!(
        detect_tick.degraded,
        vec![ids[0], ids[1]],
        "exactly the two faulted goals degrade — goal 2's health is judged \
         from its own attributed counters, not device totals"
    );
    // Each goal got its own diagnosis, and each blamed the faulted edge.
    let blamed = |goal: GoalId| {
        detect_tick
            .diagnosed
            .iter()
            .find(|(g, _)| *g == goal)
            .and_then(|(_, d)| d.blamed)
    };
    assert_eq!(blamed(ids[0]), Some(t.core[0]));
    assert_eq!(blamed(ids[1]), Some(t.core[0]));
    // The healthy bystander was never dragged into the repair.
    let repair = detect_tick.repair.as_ref().expect("a repair pass ran");
    assert!(
        repair
            .outcome(ids[2])
            .is_none_or(|o| o.action == conman::core::runtime::ReconcileAction::Unchanged),
        "goal 2 rode through untouched"
    );
    assert!(
        (0..3).all(|k| t.probe_pair(k)),
        "all three goals carry traffic"
    );
    assert!(t.mn.goals.iter().all(|r| r.status == GoalStatus::Active));
    assert_eq!(t.mn.audit(), []);
}

#[test]
fn operator_withdraw_mid_repair_cancels_the_repair_cleanly() {
    let (mut t, mut cl, ids) = looped_chain(4, 2);
    assert!(cl.run_until_converged(&mut t.mn, 10).converged);

    // An unrepairable fault: cut the first core link — every candidate
    // path crosses it, so the repair machinery can only thrash.
    let link = t.core_link(0).expect("core link");
    apply_fault(&mut t.mn.net, FaultKind::LinkCut(link));

    // One tick of failing repair (both goals degrade, reinstall commits,
    // verification fails).
    let tick = cl.tick(&mut t.mn);
    assert_eq!(tick.degraded.len(), 2);
    assert!(tick.repair.is_some());
    assert!(
        t.mn.goals.iter().all(|r| r.status.needs_work()),
        "repairs are in flight"
    );

    // The operator withdraws goal 0 mid-repair.  The withdrawal is
    // processed before any repair work next tick: the goal is gone, its
    // endpoints dropped, and no pass ever resurrects it.
    cl.withdraw(ids[0]);
    let tick = cl.tick(&mut t.mn);
    assert_eq!(tick.withdrawn, vec![ids[0]]);
    assert!(t.mn.goals.get(ids[0]).is_none(), "the record is gone");
    assert!(
        tick.repair
            .as_ref()
            .is_none_or(|r| r.outcome(ids[0]).is_none()),
        "the repair pass no longer carries the withdrawn goal"
    );
    // Restore the link: the surviving goal repairs; the withdrawn one
    // stays gone.
    apply_fault(&mut t.mn.net, FaultKind::LinkRestore(link));
    let run = cl.run_until_converged(&mut t.mn, 8);
    assert!(run.converged);
    assert_eq!(t.mn.goals.len(), 1);
    assert_eq!(t.mn.goals.status(ids[1]), Some(GoalStatus::Active));
    assert!(!t.probe_pair(0), "withdrawn goal's traffic stays down");
    assert!(t.probe_pair(1));
    assert_eq!(t.mn.audit(), []);
}

#[test]
fn repeated_repair_failure_parks_the_goal_failed_not_repairing() {
    let (mut t, mut cl, ids) = looped_chain(4, 1);
    assert!(cl.run_until_converged(&mut t.mn, 10).converged);
    let budget = GoalStore::MAX_REPAIR_ATTEMPTS;

    let link = t.core_link(1).expect("core link");
    apply_fault(&mut t.mn.net, FaultKind::LinkCut(link));

    // Tick until the goal settles: it must land `Failed` — never stuck in
    // `Repairing` — once the budget is exhausted.
    let run = cl.run_until_converged(&mut t.mn, (budget + 4) as u64);
    assert!(run.converged, "the loop settles even though repair failed");
    let rec = t.mn.goals.get(ids[0]).expect("still stored");
    assert_eq!(rec.status, GoalStatus::Failed, "budget exhausted => Failed");
    assert_eq!(rec.repair_attempts, budget);
    assert_eq!(rec.last_error, Some(GoalFailure::ProbeFailed));

    // Failed goals are left alone: the pipe allocator stops moving and the
    // management plane goes silent again.
    let base = t.mn.goals.peek_pipe_base();
    for _ in 0..3 {
        let tick = cl.tick(&mut t.mn);
        assert_eq!(tick.nm_sent, 0, "failed goals are not re-attempted");
        assert!(tick.repair.is_none());
    }
    assert_eq!(t.mn.goals.peek_pipe_base(), base, "no pipe-block leak");

    // The operator can re-arm it: restore the link, retry, and the loop
    // picks it up on the next tick.
    apply_fault(&mut t.mn.net, FaultKind::LinkRestore(link));
    assert!(t.mn.goals.retry(ids[0]));
    let run = cl.run_until_converged(&mut t.mn, 6);
    assert!(run.converged);
    assert_eq!(t.mn.goals.status(ids[0]), Some(GoalStatus::Active));
    assert!(t.probe_pair(0));
    assert_eq!(t.mn.audit(), []);
}

#[test]
fn in_band_loop_probes_on_every_quiet_tick_and_detects_a_late_fault_at_once() {
    // In-band discovery and setup push the network's clock well past the
    // loop's tick boundaries, so `run_until(deadline)` is a no-op for many
    // ticks.  Health must not depend on where simulated time happens to
    // stand: every tick probes.
    let t = managed_fanout_chain_with(4, 3, InBandChannel::new());
    let (mut t, mut cl, ids) = looped_chain_with(t, 4, 3);
    assert!(cl.run_until_converged(&mut t.mn, 16).converged);

    t.mn.set_recorder(Recorder::new());
    for _ in 0..20 {
        let tick = cl.tick(&mut t.mn);
        assert_eq!(tick.nm_sent, 0, "a quiet tick sends nothing: {tick:#?}");
        assert!(tick.frames > 0, "tick {} sent no probe", tick.tick);
    }
    let probed: Vec<u64> =
        t.mn.recorder
            .journal_events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::HealthProbe { goal, .. } => Some(goal),
                _ => None,
            })
            .collect();
    let each_tick: Vec<u64> = ids.iter().map(|id| id.0).collect();
    assert_eq!(
        probed,
        each_tick.repeat(20),
        "one health probe per goal per tick"
    );

    lose_core_state(&mut t.mn, t.core[1]);
    let fault_tick = cl.ticks();
    let run = cl.run_until_converged(&mut t.mn, 6);
    assert!(run.converged, "the loop re-converges: {run:#?}");
    assert_eq!(run.first_detection(), Some(fault_tick + 1));
    assert_eq!(run.ticks[0].degraded, ids);
    let repair = run.first_repair().expect("a repair pass converged");
    assert!(repair <= fault_tick + 3, "repaired at tick {repair}");
    assert!((0..3).all(|k| t.probe_pair(k)));
    assert_eq!(t.mn.audit(), []);
}

#[test]
fn mesh_core_link_cut_is_rerouted_in_one_batched_pass() {
    let (mut t, mut cl, ids) = looped_mesh(2, 2);
    assert!(cl.run_until_converged(&mut t.mn, 10).converged);
    let fault_tick = cl.ticks();

    // Cut the first core-to-core link of the applied path.  The 2×k mesh
    // keeps a whole second row (plus cross-links), so a genuine alternative
    // exists — this is the scenario the chain could never express.
    let hop = t.applied_core_hop(ids[0]).expect("a core hop exists");
    let link = t.link(hop.0, hop.1).expect("the hop is a physical link");
    apply_fault(&mut t.mn.net, FaultKind::LinkCut(link));

    let run = cl.run_until_converged(&mut t.mn, 6);
    assert!(run.converged, "the loop re-converges: {run:#?}");
    let detect = run.first_detection().expect("a health round detected");
    let repair = run.first_repair().expect("a repair pass converged");
    assert_eq!(detect, fault_tick + 1, "the very next health round detects");
    assert!(
        repair <= fault_tick + 2,
        "reroute within two ticks of the cut (got tick {repair})"
    );

    // Diagnosis blamed the *link* (not just a device), and the repair was
    // ONE batched pass: every goal Reapplied on its first attempt — no
    // ProbeFailed / ExecuteFailed / PlanFailed outcome anywhere, so the
    // repair budget is untouched and no goal ever parked `Failed`.
    let detect_tick = run
        .ticks
        .iter()
        .find(|tk| !tk.degraded.is_empty())
        .expect("detection tick");
    let want = if hop.0 <= hop.1 {
        (hop.0, hop.1)
    } else {
        (hop.1, hop.0)
    };
    for (g, d) in &detect_tick.diagnosed {
        assert_eq!(
            d.blamed_link,
            Some(want),
            "goal {g}'s diagnosis must blame the cut link: {d:?}"
        );
    }
    let repair_passes: usize = run
        .ticks
        .iter()
        .filter(|tk| {
            tk.repair.as_ref().is_some_and(|r| {
                r.outcomes
                    .iter()
                    .any(|o| o.action != ReconcileAction::Unchanged)
            })
        })
        .count();
    assert_eq!(
        repair_passes, 1,
        "one batched pass reroutes the whole fleet"
    );
    for tk in &run.ticks {
        if let Some(r) = &tk.repair {
            for o in &r.outcomes {
                assert!(
                    matches!(
                        o.action,
                        ReconcileAction::Unchanged | ReconcileAction::Reapplied
                    ),
                    "no failed repair attempt may burn budget: {o:?}"
                );
            }
        }
    }
    for &id in &ids {
        let rec = t.mn.goals.get(id).expect("stored");
        assert_eq!(rec.status, GoalStatus::Active);
        assert_eq!(rec.repair_attempts, 0, "no repair-budget burn");
        // The replacement path genuinely routes around the cut link.
        let devices = rec.applied().expect("applied").path.devices();
        assert!(
            !devices
                .windows(2)
                .any(|w| (w[0], w[1]) == hop || (w[1], w[0]) == hop),
            "the new path must avoid the cut link: {devices:?}"
        );
    }
    assert!(
        (0..2).all(|g| t.probe_pair(g)),
        "traffic verified end to end"
    );
    assert_eq!(t.mn.audit(), []);
}

#[test]
fn mesh_blamed_link_is_diagnosed_under_background_traffic() {
    use conman::diagnose::{Diagnoser, SuspectTarget};

    let (mut t, mut cl, ids) = looped_mesh(2, 4);
    assert!(cl.run_until_converged(&mut t.mn, 10).converged);
    let hop = t.applied_core_hop(ids[0]).expect("core hop");
    let link = t.link(hop.0, hop.1).expect("link");
    apply_fault(&mut t.mn.net, FaultKind::LinkCut(link));

    // Diagnose goal 0 exactly the way the loop client does — its own probe
    // inside its flow window, every *other* goal pushing a datagram inside
    // its own window between probes.  The background bursts die on the same
    // cut link, ballooning the shared devices' drop tallies; only per-goal
    // flow attribution keeps the frontier walk pointed at the *link* rather
    // than at whichever device dropped the most.
    let path =
        t.mn.goals
            .get(ids[0])
            .and_then(|r| r.applied())
            .map(|a| a.path.clone())
            .expect("applied path");
    let endpoints: Vec<(GoalId, GoalEndpoints)> = ids
        .iter()
        .enumerate()
        .map(|(k, &id)| {
            let (src, dst, dst_ip) = t.fanout_probe(k);
            (id, GoalEndpoints { src, dst, dst_ip })
        })
        .collect();
    let probed = endpoints[0].1;
    let mut seq = 0u64;
    let mut probe = |mn: &mut ManagedNetwork<OutOfBandChannel>| {
        seq += 1;
        probed.probe(&mut mn.net, format!("mesh-diag-{seq}").as_bytes())
    };
    let mut bg_seq = 0u64;
    let mut background = |mn: &mut ManagedNetwork<OutOfBandChannel>| {
        for (g, ep) in endpoints.iter().skip(1) {
            bg_seq += 1;
            mn.net.begin_flow_window(g.0);
            ep.probe(&mut mn.net, format!("bg-{}-{bg_seq}", g.0).as_bytes());
            mn.net.end_flow_window();
        }
    };
    let report = Diagnoser::new(2).for_goal(ids[0]).diagnose_with_background(
        &mut t.mn,
        &path,
        &mut probe,
        &mut background,
    );
    assert!(!report.healthy);
    assert!(
        report.blames_link(hop.0, hop.1),
        "the cut core link must be blamed under background load: {:#?}",
        report.suspects
    );
    match &report.prime_suspect().expect("suspect").target {
        &SuspectTarget::Link { a, b } => assert!(
            (a, b) == hop || (b, a) == hop,
            "the prime suspect must be the cut link, not {a}-{b}"
        ),
        other => panic!("the prime suspect must be the link, not {other:?}"),
    }
    assert_eq!(t.mn.audit(), []);
}

#[test]
fn chain_blamed_link_falls_back_to_reinstall_instead_of_failing() {
    // On a chain the same link blame has no alternative: the planner's
    // suspect-fallback must drop the link exclusion and reinstall through —
    // symmetric with blamed edge modules — not park the goal `Failed` with
    // an instant `PlanFailed`.
    let (mut t, mut cl, ids) = looped_chain(4, 1);
    assert!(cl.run_until_converged(&mut t.mn, 10).converged);
    let link = t.core_link(1).expect("core link");
    apply_fault(&mut t.mn.net, FaultKind::LinkCut(link));

    let tick = cl.tick(&mut t.mn);
    assert_eq!(tick.degraded, ids, "the cut degrades the goal");
    let outcome = tick
        .repair
        .as_ref()
        .and_then(|r| r.outcome(ids[0]))
        .expect("a repair pass ran");
    assert_eq!(
        outcome.action,
        ReconcileAction::ProbeFailed,
        "the reinstall-through committed and only the verification failed"
    );
    let rec = t.mn.goals.get(ids[0]).expect("stored");
    assert_eq!(
        rec.status,
        GoalStatus::Degraded,
        "one failed attempt, not Failed"
    );
    assert_eq!(rec.repair_attempts, 1);

    // The link flap ends: the next pass reinstalls over the restored link
    // and the goal converges — exactly what parking it `Failed` would have
    // forfeited.
    apply_fault(&mut t.mn.net, FaultKind::LinkRestore(link));
    let run = cl.run_until_converged(&mut t.mn, 6);
    assert!(run.converged, "{run:#?}");
    assert_eq!(t.mn.goals.status(ids[0]), Some(GoalStatus::Active));
    assert!(t.probe_pair(0));
    assert_eq!(t.mn.audit(), []);
}

#[test]
fn verified_repair_ages_out_exclusions_so_the_recovered_path_is_routable_again() {
    let (mut t, mut cl, ids) = looped_mesh(2, 1);
    assert!(cl.run_until_converged(&mut t.mn, 10).converged);

    // First fault: cut the original path's core link; the goal reroutes
    // onto the other row in one pass.
    let hop1 = t.applied_core_hop(ids[0]).expect("core hop");
    let link1 = t.link(hop1.0, hop1.1).expect("link");
    apply_fault(&mut t.mn.net, FaultKind::LinkCut(link1));
    assert!(cl.run_until_converged(&mut t.mn, 6).converged);
    let rec = t.mn.goals.get(ids[0]).expect("stored");
    assert!(
        rec.excluded.is_empty(),
        "a verified repair clears the exclusion set: {:?}",
        rec.excluded
    );
    let hop2 = t.applied_core_hop(ids[0]).expect("new core hop");
    assert_ne!(hop1, hop2, "the goal moved onto the other row");

    // The original link recovers; then the *new* path's core link dies.
    // Routing back over the recovered original must still be possible —
    // a permanently remembered exclusion would wrongly rule it out.
    apply_fault(&mut t.mn.net, FaultKind::LinkRestore(link1));
    let link2 = t.link(hop2.0, hop2.1).expect("link");
    apply_fault(&mut t.mn.net, FaultKind::LinkCut(link2));
    let run = cl.run_until_converged(&mut t.mn, 6);
    assert!(run.converged, "{run:#?}");
    let rec = t.mn.goals.get(ids[0]).expect("stored");
    assert_eq!(rec.status, GoalStatus::Active);
    assert_eq!(rec.repair_attempts, 0, "second reroute burned no budget");
    let devices = rec.applied().expect("applied").path.devices();
    assert!(
        devices
            .windows(2)
            .any(|w| (w[0], w[1]) == hop1 || (w[1], w[0]) == hop1),
        "the goal routed back over the recovered original link: {devices:?}"
    );
    assert!(t.probe_pair(0));
    assert_eq!(t.mn.audit(), []);
}

#[test]
fn ring_link_cut_heals_onto_the_other_arc() {
    use conman::modules::managed_ring_fanout;

    let mut t = managed_ring_fanout(4, 2);
    t.discover();
    t.mn.goals.limits = mesh_limits(4);
    let mut cl = ControlLoop::new(&t.mn, LoopConfig::default())
        .with_client(Box::new(AutonomicClient::new(2)));
    let mut ids = Vec::new();
    for g in 0..2 {
        let (src, dst, dst_ip) = t.fanout_probe(g);
        let id = t.mn.submit(t.fanout_goal(g));
        cl.track(id, GoalEndpoints { src, dst, dst_ip });
        ids.push(id);
    }
    assert!(cl.run_until_converged(&mut t.mn, 10).converged);

    let hop = t.applied_core_hop(ids[0]).expect("ring hop");
    let link = t.link(hop.0, hop.1).expect("link");
    apply_fault(&mut t.mn.net, FaultKind::LinkCut(link));
    let run = cl.run_until_converged(&mut t.mn, 6);
    assert!(run.converged, "{run:#?}");
    for &id in &ids {
        let rec = t.mn.goals.get(id).expect("stored");
        assert_eq!(rec.status, GoalStatus::Active);
        assert_eq!(rec.repair_attempts, 0, "the other arc took over cleanly");
        let devices = rec.applied().expect("applied").path.devices();
        assert!(
            !devices
                .windows(2)
                .any(|w| (w[0], w[1]) == hop || (w[1], w[0]) == hop),
            "the repaired path must use the other arc: {devices:?}"
        );
    }
    assert!((0..2).all(|g| t.probe_pair(g)));
    assert_eq!(t.mn.audit(), []);
}

#[test]
fn a_long_quiet_run_keeps_the_packet_trace_bounded() {
    use conman::netsim::trace::TRACE_CAPACITY;

    let (mut t, mut cl, _ids) = looped_chain(4, 64);
    assert!(cl.run_until_converged(&mut t.mn, 10).converged);
    // The loop never clears the trace: the ring alone keeps an always-on
    // loop's memory flat.
    let mut last_len = 0;
    for _ in 0..300 {
        let tick = cl.tick(&mut t.mn);
        assert!(tick.quiescent(), "a quiet tick sends nothing: {tick:#?}");
        assert!(tick.degraded.is_empty() && tick.repair.is_none());
        assert!(tick.frames > 0, "the health probes did run");
        let len = t.mn.net.trace().len();
        assert!(last_len <= len && len <= TRACE_CAPACITY);
        last_len = len;
    }
    assert_eq!(last_len, TRACE_CAPACITY);
    assert!(t.mn.goals.iter().all(|r| r.status == GoalStatus::Active));
    assert_eq!(t.mn.audit(), []);
}

#[test]
fn withdrawing_a_goal_forgets_its_flow_counters_on_every_device() {
    let (mut t, mut cl, ids) = looped_chain(4, 2);
    assert!(cl.run_until_converged(&mut t.mn, 10).converged);
    cl.tick(&mut t.mn);
    let devices_tagged = |mn: &ManagedNetwork<OutOfBandChannel>, id: GoalId| {
        mn.net
            .devices()
            .filter(|d| d.stats.flows.contains_key(&id.0))
            .count()
    };
    // Both hosts, both customer routers and the four core routers.
    assert_eq!(devices_tagged(&t.mn, ids[0]), 8);

    cl.withdraw(ids[0]);
    let tick = cl.tick(&mut t.mn);
    assert_eq!(tick.withdrawn, vec![ids[0]]);
    assert_eq!(devices_tagged(&t.mn, ids[0]), 0, "no device remembers it");
    assert_eq!(devices_tagged(&t.mn, ids[1]), 8, "the survivor is intact");

    // A later goal between the same hosts counts only its own probes.
    let (src, dst, dst_ip) = t.fanout_probe(0);
    cl.submit(t.fanout_goal(0), Some(GoalEndpoints { src, dst, dst_ip }));
    let run = cl.run_until_converged(&mut t.mn, 10);
    assert!(run.converged, "{run:#?}");
    let later = run.ticks.iter().flat_map(|t| &t.submitted).next();
    let later = *later.expect("the submit was processed");
    let sent = t.mn.net.flow_counters(src, later.0).originated;
    assert!(sent > 0);
    assert_eq!(t.mn.net.flow_counters(dst, later.0).local_delivered, sent);
    assert_eq!(devices_tagged(&t.mn, later), 8);

    // The operator's direct call forgets too.
    assert!(t.mn.withdraw(ids[1]).removed);
    assert_eq!(devices_tagged(&t.mn, ids[1]), 0);
    assert_eq!(t.mn.audit(), []);
}

#[test]
fn a_quiet_tick_s_lookups_grow_with_the_probes_not_with_the_fleet() {
    use conman_bench::control_loop::{loop_run, LoopScenario};

    // The `quiet-lookups` column of `experiments loop`: route, rule and
    // tunnel-address entries examined in one quiet tick.  Four times the
    // goals send four times the probes; a linear walk per frame made the
    // work grow by ≈ 16, the indexes keep it within 5.
    let work = |goals| loop_run(10, goals, LoopScenario::PerGoalTableFlush).quiet_lookup_work;
    let (w64, w256) = (work(64), work(256));
    assert!(w64 > 0, "a quiet tick routes its probes");
    let ratio = w256 as f64 / w64 as f64;
    assert!(
        ratio <= 5.0,
        "quiet-tick lookup work grew {ratio:.2}x from 64 to 256 goals ({w64} -> {w256})"
    );
}

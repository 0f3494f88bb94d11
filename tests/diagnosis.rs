//! Fault-scenario integration tests for the `conman-diagnose` subsystem:
//! inject a fault with `netsim::fault`, let the `Diagnoser` localise it from
//! counter deltas along the configured module path, and heal the operator
//! way — `goals.mark_degraded(id, Healer::exclusions(..))` then
//! `reconcile_with(probe)`, the same two steps the control loop takes —
//! verifying the repair end to end where the topology permits one.

use conman::core::ids::ModuleKind;
use conman::core::nm::{Exclusion, GoalId, GoalStatus, GoalStore, ModulePath};
use conman::core::runtime::verify::PlanViolation;
use conman::core::runtime::{ControlLoop, GoalEndpoints, LoopConfig, ReconcileAction};
use conman::diagnose::{AutonomicClient, Diagnoser, Healer, SuspectTarget};
use conman::modules::{managed_chain, managed_chain_with, ManagedChain};
use conman::netsim::clock::SimDuration;
use conman::netsim::fault::{apply_fault, FaultInjector, FaultKind, FaultPlan, Misconfiguration};
use mgmt_channel::{InBandChannel, ManagementChannel, OutOfBandChannel};
use std::collections::BTreeSet;

/// Discover the chain and force the path with `label` as the stored goal's
/// applied plan (`submit` + `plan_for_path` + `execute_plan`), asserting it
/// initially carries traffic.
fn configure<C: ManagementChannel>(
    mut t: ManagedChain<C>,
    label: &str,
) -> (ManagedChain<C>, GoalId, ModulePath) {
    t.discover();
    let goal = t.vpn_goal();
    let paths = t.mn.nm.find_paths(&goal);
    let path = paths
        .iter()
        .find(|p| p.technology_label() == label)
        .unwrap_or_else(|| panic!("{label} path exists"))
        .clone();
    let id = t.mn.submit(goal);
    let plan = t.mn.plan_for_path(id, &path).expect("the path plans");
    t.mn.execute_plan(plan).expect("the plan commits");
    assert!(t.probe(), "the {label} path must work before the fault");
    (t, id, path)
}

fn configured(n: usize, label: &str) -> (ManagedChain<OutOfBandChannel>, GoalId, ModulePath) {
    configure(managed_chain(n), label)
}

/// Technology label of the goal's applied path.
fn applied_label<C: ManagementChannel>(t: &ManagedChain<C>, id: GoalId) -> String {
    let applied = t.mn.goals.get(id).and_then(|r| r.applied());
    applied.expect("an applied plan").path.technology_label()
}

/// `Telemetry` messages the NM has sent so far.
fn telemetry_sent<C: ManagementChannel>(t: &ManagedChain<C>) -> u64 {
    let sent = t.mn.nm_counters().sent_by_category;
    let telemetry = sent.get(&mgmt_channel::MessageCategory::Telemetry);
    telemetry.copied().unwrap_or(0)
}

/// Scenario 1 — link cut.  A chain has no alternate physical route, so the
/// NM must localise the cut precisely and admit it cannot re-plan around it.
#[test]
fn link_cut_is_localised_and_correctly_declared_unrepairable() {
    let (mut t, id, path) = configured(3, "GRE-IP");
    let link = t.core_link(0).expect("A–B core link");
    apply_fault(&mut t.mn.net, FaultKind::LinkCut(link));

    let mut probe = t.probe_fn();
    let report = Diagnoser::default().diagnose(&mut t.mn, &path, &mut probe);
    assert!(!report.healthy);
    assert_eq!(report.probes_delivered, 0);
    assert!(
        report.blames_link(t.core[0], t.core[1]),
        "the cut A–B link must be the suspect: {:#?}",
        report.suspects
    );
    match &report.prime_suspect().unwrap().target {
        &SuspectTarget::Link { a, b } => assert_eq!((a, b), (t.core[0], t.core[1])),
        other => panic!("expected a link suspect, got {other:?}"),
    }

    // Healing is impossible on a chain: every path crosses the cut link, so
    // the reconciler reinstalls through it, every verification fails and
    // the repair-attempt budget parks the goal.
    t.mn.goals
        .mark_degraded(id, Healer::exclusions(&t.mn, &report));
    for attempt in 1..=GoalStore::MAX_REPAIR_ATTEMPTS {
        let pass = t.mn.reconcile_with(|mn, _| Some(probe(mn)));
        let outcome = pass.outcome(id).expect("the goal was reconciled");
        assert_eq!(outcome.action, ReconcileAction::ProbeFailed);
        let parked = attempt == GoalStore::MAX_REPAIR_ATTEMPTS;
        assert_eq!(
            outcome.status == GoalStatus::Failed,
            parked,
            "the goal parks on the last budgeted attempt, not before: {outcome:?}"
        );
    }
    assert_eq!(t.mn.goals.status(id), Some(GoalStatus::Failed));
    assert_eq!(t.mn.audit(), []);
}

/// Scenario 2 — MPLS core dies (cross-connects flushed on the middle
/// router).  The NM localises the MPLS module and falls back to GRE-IP,
/// restoring end-to-end delivery: the ISSUE's flagship scenario.
#[test]
fn mpls_core_failure_heals_onto_gre_fallback() {
    let (mut t, id, path) = configured(3, "MPLS");
    apply_fault(
        &mut t.mn.net,
        FaultKind::Misconfigure(Misconfiguration::ClearMplsState { device: t.core[1] }),
    );

    let mut probe = t.probe_fn();
    let report = Diagnoser::default().diagnose(&mut t.mn, &path, &mut probe);
    assert!(!report.healthy);
    let mpls_b = t.core_module(1, &ModuleKind::Mpls).unwrap();
    assert!(
        report.blames_module(&mpls_b),
        "router B's MPLS module must be the suspect: {:#?}",
        report.suspects
    );

    t.mn.goals
        .mark_degraded(id, Healer::exclusions(&t.mn, &report));
    let pass = t.mn.reconcile_with(|mn, _| Some(probe(mn)));
    let outcome = pass.outcome(id).expect("the goal was reconciled");
    assert_eq!(outcome.status, GoalStatus::Active, "{outcome:#?}");
    assert_eq!(
        (outcome.action, pass.transactions),
        (ReconcileAction::Reapplied, 2),
        "the failed path is torn down, then the replacement executes"
    );
    let label = applied_label(&t, id);
    assert!(
        !label.contains("MPLS"),
        "the replacement must avoid the dead MPLS core, got {label}"
    );
    // And the repair holds for ordinary traffic, both directions.
    let (fwd, _) = t.send_site1_to_site2(b"after-heal");
    let (rev, _) = t.send_site2_to_site1(b"after-heal-back");
    assert!(fwd && rev, "customer traffic must flow after self-healing");
    assert_eq!(t.mn.audit(), []);
}

/// Scenario 3 — GRE key misconfiguration at the egress router.  Counter
/// evidence (TunnelMismatch drops) pins the egress GRE module; healing
/// moves the VPN onto a path avoiding it.
#[test]
fn gre_key_misconfiguration_is_pinned_to_the_egress_module_and_healed() {
    let (mut t, id, path) = configured(3, "GRE-IP");
    let egress = *t.core.last().unwrap();
    apply_fault(
        &mut t.mn.net,
        FaultKind::Misconfigure(Misconfiguration::CorruptGreKey {
            device: egress,
            delta: 7,
        }),
    );

    let mut probe = t.probe_fn();
    let report = Diagnoser::default().diagnose(&mut t.mn, &path, &mut probe);
    assert!(!report.healthy);
    let gre_c = t.core_module(2, &ModuleKind::Gre).unwrap();
    assert!(
        report.blames_module(&gre_c),
        "the egress GRE module must be the suspect: {:#?}",
        report.suspects
    );

    t.mn.goals
        .mark_degraded(id, Healer::exclusions(&t.mn, &report));
    let pass = t.mn.reconcile_with(|mn, _| Some(probe(mn)));
    assert_eq!(t.mn.goals.status(id), Some(GoalStatus::Active), "{pass:#?}");
    assert!(
        !applied_label(&t, id).contains("GRE"),
        "the replacement must avoid the corrupted GRE module"
    );
    let (fwd, _) = t.send_site1_to_site2(b"after-heal");
    let (rev, _) = t.send_site2_to_site1(b"after-heal-back");
    assert!(fwd && rev, "traffic flows both ways after the repair");
    assert_eq!(t.mn.audit(), []);
}

/// Scenario 4 — device crash.  The crashed router answers neither the data
/// plane nor the management channel; the diagnoser reports the device
/// itself, and no transaction can commit through it on a chain.
#[test]
fn device_crash_is_attributed_to_the_device() {
    let (mut t, id, path) = configured(3, "GRE-IP");
    apply_fault(&mut t.mn.net, FaultKind::DeviceCrash(t.core[1]));

    let mut probe = t.probe_fn();
    let polls_before = telemetry_sent(&t);
    let report = Diagnoser::default().diagnose(&mut t.mn, &path, &mut probe);
    assert!(!report.healthy);
    assert_eq!(report.unresponsive, vec![t.core[1]]);
    // One pull per path device before the probes and one after — the
    // crashed router is polled like the rest, it just never answers.
    assert_eq!(
        telemetry_sent(&t) - polls_before,
        2 * path.devices().len() as u64
    );
    assert!(
        report.blames_device(t.core[1]),
        "the crashed router must be the prime suspect: {:#?}",
        report.suspects
    );
    assert_eq!(report.prime_suspect().unwrap().confidence_pct, 95);

    // A chain cannot route around a crashed core router: the reinstall
    // through it cannot even stage, and the budget parks the goal.
    t.mn.goals
        .mark_degraded(id, Healer::exclusions(&t.mn, &report));
    for _ in 0..GoalStore::MAX_REPAIR_ATTEMPTS {
        let pass = t.mn.reconcile_with(|mn, _| Some(probe(mn)));
        let outcome = pass.outcome(id).expect("the goal was reconciled");
        assert_eq!(outcome.action, ReconcileAction::ExecuteFailed);
    }
    assert_eq!(t.mn.goals.status(id), Some(GoalStatus::Failed));
    let crashed = PlanViolation::DeviceSilent { device: t.core[1] };
    assert_eq!(t.mn.audit(), [crashed]);
}

/// Scenario 5 — 100% loss spike on the B–C link (the link stays
/// administratively up, so only counters reveal it).
#[test]
fn loss_spike_blackhole_is_localised_to_the_link() {
    let (mut t, id, path) = configured(3, "GRE-IP");
    let link = t.core_link(1).expect("B–C core link");
    apply_fault(
        &mut t.mn.net,
        FaultKind::LossSpike {
            link,
            loss_ppm: 1_000_000,
        },
    );

    let mut probe = t.probe_fn();
    let report = Diagnoser::default().diagnose(&mut t.mn, &path, &mut probe);
    assert!(!report.healthy);
    assert!(
        report.blames_link(t.core[1], t.core[2]),
        "the lossy B–C link must be the suspect: {:#?}",
        report.suspects
    );
    assert!(
        t.mn.net.frames_lost() > 0,
        "the loss sampler must account for the drops"
    );

    // Still unrepairable on a chain — but the reinstalled configuration is
    // left standing, so clearing the spike restores delivery without any
    // further reconfiguration, which the NM can verify.
    t.mn.goals
        .mark_degraded(id, Healer::exclusions(&t.mn, &report));
    for _ in 0..GoalStore::MAX_REPAIR_ATTEMPTS {
        let pass = t.mn.reconcile_with(|mn, _| Some(probe(mn)));
        let outcome = pass.outcome(id).expect("the goal was reconciled");
        assert_eq!(outcome.action, ReconcileAction::ProbeFailed);
    }
    assert_eq!(t.mn.goals.status(id), Some(GoalStatus::Failed));
    apply_fault(&mut t.mn.net, FaultKind::LossSpike { link, loss_ppm: 0 });
    assert!(t.probe(), "delivery resumes once the loss clears");
    assert_eq!(t.mn.audit(), []);
}

/// Scenario 5b — *partial* loss spike (50%): some probes survive, so only
/// the rx-shortfall on the far side of the link reveals it.
#[test]
fn partial_loss_spike_is_still_localised_to_the_link() {
    let (mut t, _id, path) = configured(3, "GRE-IP");
    let link = t.core_link(1).expect("B–C core link");
    apply_fault(
        &mut t.mn.net,
        FaultKind::LossSpike {
            link,
            loss_ppm: 500_000,
        },
    );

    let mut probe = t.probe_fn();
    // More probes than the default so the deterministic sampler is certain
    // to drop at least one and pass at least one.
    let report = Diagnoser::new(8).diagnose(&mut t.mn, &path, &mut probe);
    assert!(!report.healthy);
    assert!(
        report.probes_delivered > 0 && report.probes_delivered < report.probes_sent,
        "a 50% spike should let some probes through: {}/{}",
        report.probes_delivered,
        report.probes_sent
    );
    assert!(
        report.blames_link(t.core[1], t.core[2]),
        "partial loss must still be pinned to the lossy link: {:#?}",
        report.suspects
    );
    assert_eq!(t.mn.audit(), []);
}

/// Scenario 6 — link flap from a deterministic fault plan.  Diagnosis during
/// the down window localises the link; once the plan restores it, the same
/// probe confirms recovery.  The whole timeline replays from a seed.
#[test]
fn link_flap_is_detected_while_down_and_recovers_when_the_plan_restores_it() {
    let (mut t, id, path) = configured(3, "GRE-IP");
    let link = t.core_link(0).expect("A–B core link");
    let start = t.mn.net.now() + SimDuration::from_millis(10);
    let plan = FaultPlan::new().flap(
        link,
        start,
        SimDuration::from_millis(500),
        SimDuration::from_millis(500),
        1,
    );
    let mut injector = FaultInjector::new(plan);

    // Advance into the down window.
    t.mn.net.run_for(SimDuration::from_millis(20));
    assert_eq!(injector.apply_due(&mut t.mn.net), 1, "the cut fires");

    let mut probe = t.probe_fn();
    let report = Diagnoser::default().diagnose(&mut t.mn, &path, &mut probe);
    assert!(!report.healthy);
    assert!(report.blames_link(t.core[0], t.core[1]));
    t.mn.goals
        .mark_degraded(id, Healer::exclusions(&t.mn, &report));
    let pass = t.mn.reconcile_with(|mn, _| Some(probe(mn)));
    assert_eq!(
        pass.outcome(id).map(|o| (o.action, o.status)),
        Some((ReconcileAction::ProbeFailed, GoalStatus::Degraded)),
        "one failed attempt while the link is down does not park the goal"
    );

    // Advance past the restore; the flap heals itself, and the next pass
    // verifies the goal back to `Active` within its budget.
    t.mn.net.run_for(SimDuration::from_millis(600));
    assert_eq!(injector.apply_due(&mut t.mn.net), 1, "the restore fires");
    assert_eq!(injector.pending(), 0);
    t.mn.reconcile_with(|mn, _| Some(probe(mn)));
    assert_eq!(t.mn.goals.status(id), Some(GoalStatus::Active));
    let applied = t.mn.goals.get(id).and_then(|r| r.applied());
    let applied = applied.expect("an applied plan").path.clone();
    let verify = Diagnoser::default().diagnose(&mut t.mn, &applied, &mut probe);
    assert!(
        verify.healthy,
        "the path is healthy again after the flap: {verify:#?}"
    );
    assert_eq!(t.mn.audit(), []);
}

/// Scenario 7 — policy routing flushed on a middle router while a GRE path
/// is active.  (On a 4-router chain the GRE outer endpoints are not on the
/// middle routers' connected subnets, so losing the policy rules really
/// blackholes the tunnel.)  The transit IP module is blamed (NoRoute drops)
/// and the NM heals onto the pure-MPLS path, which crosses the router in
/// the label plane and therefore survives.
#[test]
fn flushed_routing_heals_onto_the_mpls_path() {
    let (mut t, id, path) = configured(4, "GRE-IP");
    apply_fault(
        &mut t.mn.net,
        FaultKind::Misconfigure(Misconfiguration::FlushPolicyRouting { device: t.core[1] }),
    );

    let mut probe = t.probe_fn();
    let report = Diagnoser::default().diagnose(&mut t.mn, &path, &mut probe);
    assert!(!report.healthy);
    let ip_b = t.core_module(1, &ModuleKind::Ip).unwrap();
    assert!(
        report.blames_module(&ip_b),
        "router B's transit IP module must be the suspect: {:#?}",
        report.suspects
    );

    t.mn.goals
        .mark_degraded(id, Healer::exclusions(&t.mn, &report));
    let pass = t.mn.reconcile_with(|mn, _| Some(probe(mn)));
    assert_eq!(t.mn.goals.status(id), Some(GoalStatus::Active), "{pass:#?}");
    assert_eq!(
        applied_label(&t, id),
        "MPLS",
        "the pure-MPLS path avoids B's IP module entirely"
    );
    let (fwd, _) = t.send_site1_to_site2(b"after-heal");
    let (rev, _) = t.send_site2_to_site1(b"after-heal-back");
    assert!(fwd && rev, "traffic flows both ways after the repair");
    assert_eq!(t.mn.audit(), []);
}

/// One repair engine: from the same fault, an operator heal and a control
/// loop run end in the same goal status, on the same technology, with the
/// same exclusions left on the record — whether the fault is repairable
/// (MPLS core flushed) or not (A–B link cut on a chain).
#[test]
fn operator_heal_and_control_loop_end_in_the_same_state() {
    type EndState = (GoalStatus, String, BTreeSet<Exclusion>);
    fn end_state(t: &ManagedChain<OutOfBandChannel>, id: GoalId) -> EndState {
        let rec = t.mn.goals.get(id).expect("the goal is stored");
        (rec.status, applied_label(t, id), rec.excluded.clone())
    }
    type Fault = fn(&ManagedChain<OutOfBandChannel>) -> FaultKind;
    let scenarios: [(&str, Fault, GoalStatus); 2] = [
        (
            "GRE-IP",
            |t| FaultKind::LinkCut(t.core_link(0).expect("A–B core link")),
            GoalStatus::Failed,
        ),
        (
            "MPLS",
            |t| FaultKind::Misconfigure(Misconfiguration::ClearMplsState { device: t.core[1] }),
            GoalStatus::Active,
        ),
    ];
    for (label, fault, expected) in scenarios {
        // The operator: diagnose, mark degraded, reconcile until settled.
        let (mut t, id, path) = configured(3, label);
        let kind = fault(&t);
        apply_fault(&mut t.mn.net, kind);
        let mut probe = t.probe_fn();
        let report = Diagnoser::default().diagnose(&mut t.mn, &path, &mut probe);
        t.mn.goals
            .mark_degraded(id, Healer::exclusions(&t.mn, &report));
        while t.mn.goals.status(id).is_some_and(|s| s.needs_work()) {
            t.mn.reconcile_with(|mn, _| Some(probe(mn)));
        }
        let by_operator = end_state(&t, id);
        assert_eq!(t.mn.audit(), [], "{label} operator");

        // The loop: same testbed, same fault, no operator.
        let (mut t, id, _) = configured(3, label);
        let kind = fault(&t);
        apply_fault(&mut t.mn.net, kind);
        let mut cl = ControlLoop::new(&t.mn, LoopConfig::default())
            .with_client(Box::new(AutonomicClient::default()));
        cl.track(
            id,
            GoalEndpoints {
                src: t.host1,
                dst: t.host2,
                dst_ip: "10.0.2.5".parse().unwrap(),
            },
        );
        assert!(cl.run_until_converged(&mut t.mn, 8).converged);
        let by_loop = end_state(&t, id);

        assert_eq!(by_operator, by_loop, "{label} primary");
        assert_eq!(by_loop.0, expected, "{label} primary");
        assert_eq!(t.mn.audit(), [], "{label} loop");
    }
}

/// Telemetry works over the in-band flooding channel too: the same fault
/// scenario diagnoses identically with no out-of-band network at all.
#[test]
fn diagnosis_works_over_the_in_band_channel() {
    let (mut t, _id, path) = configure(managed_chain_with(3, InBandChannel::new()), "GRE-IP");

    apply_fault(
        &mut t.mn.net,
        FaultKind::Misconfigure(Misconfiguration::CorruptGreKey {
            device: *t.core.last().unwrap(),
            delta: 3,
        }),
    );
    let mut probe = t.probe_fn();
    let report = Diagnoser::default().diagnose(&mut t.mn, &path, &mut probe);
    assert!(!report.healthy);
    let gre_c = t.core_module(2, &ModuleKind::Gre).unwrap();
    assert!(
        report.blames_module(&gre_c),
        "in-band telemetry reaches the same verdict: {:#?}",
        report.suspects
    );
    // Telemetry traffic is accounted in its own category on the channel.
    assert!(
        telemetry_sent(&t) > 0,
        "telemetry polls are accounted as Telemetry"
    );
    assert_eq!(t.mn.audit(), []);
}

//! Flight-recorder integration tests: journal determinism on a seeded
//! scenario, post-mortem reconstruction from the dump alone, the channel
//! tap counting a live run — and every journal produced here passing the
//! `conman-analyze` conformance checker.

use conman::core::runtime::{ControlLoop, GoalEndpoints, LoopConfig};
use conman::modules::{managed_fanout_chain, ManagedChain};
use conman_bench::{assert_journal_conforms, recorded_mesh_link_cut};
use conman_diagnose::AutonomicClient;
use conman_obs::{Postmortem, Recorder};
use mgmt_channel::OutOfBandChannel;

type Chain = ManagedChain<OutOfBandChannel>;

/// The tentpole determinism guarantee: the journal is timestamped with
/// simulated time only, so two runs of the same seeded scenario produce
/// byte-identical journal dumps.
#[test]
fn same_seeded_scenario_yields_byte_identical_journals() {
    let first = recorded_mesh_link_cut(2, 3);
    let second = recorded_mesh_link_cut(2, 3);
    assert!(first.converged && second.converged);
    assert!(!first.journal.is_empty() && first.journal != "[]");
    assert_eq!(
        first.journal, second.journal,
        "the trace journal must be deterministic across identical runs"
    );
    // The runtime reads no wall clock, so the metrics repeat too.
    assert!(!first.snapshot.metrics.histograms.is_empty());
    assert_eq!(first.snapshot, second.snapshot);
    assert_journal_conforms(&first.journal, "recorded mesh link-cut journal");
}

/// The acceptance scenario: from the journal dump alone — no live state,
/// no re-run — the post-mortem must name the blamed link, show the repair
/// was a single pass, and list every staged device.
#[test]
fn postmortem_reconstructs_the_link_cut_story_from_the_dump_alone() {
    let rec = recorded_mesh_link_cut(2, 3);
    assert!(rec.converged, "ground truth: the run converged");
    assert_eq!(rec.repair_passes, 1, "ground truth: one-pass reroute");

    let pm = Postmortem::from_json(&rec.journal).expect("dump parses");

    // The blamed link is the cut link.
    assert!(
        pm.blamed_links.contains(&rec.cut_link),
        "post-mortem blames {:?}, journal says {:?}",
        rec.cut_link,
        pm.blamed_links
    );
    // The reroute took exactly one effective repair pass.
    assert_eq!(
        pm.effective_passes(),
        1,
        "post-mortem must reconstruct the one-pass reroute: {:?}",
        pm.repair_passes
    );
    // Every device of every repaired path shows up as staged in the dump
    // (the repair batch staged each of them exactly once).
    for d in &rec.new_path_devices {
        assert!(
            pm.staged_devices.contains(d),
            "device {d} is on a repaired path but the dump never staged it"
        );
    }
    // Goals degraded and were verified healthy again.
    assert!(!pm.degraded_goals.is_empty());
    assert!(!pm.verified_goals.is_empty());
}

/// The journal spells a device one way: every `Suspect`'s device ids are
/// among the `FrontierHop` devices of its own goal's diagnose span, so a
/// blamed module or link joins the hops that located it from the dump
/// alone.
#[test]
fn every_suspect_names_devices_its_own_walk_visited() {
    use conman_bench::LoopScenario;
    use conman_obs::{Blame, TraceKind};
    use std::collections::{BTreeMap, BTreeSet};

    let (_, chain) = conman_bench::recorded_loop_run(4, 2, LoopScenario::CoreStateLoss);
    let (_, mesh) = conman_bench::recorded_mesh_loop_run(2, 3, LoopScenario::MeshLinkCut);
    let module: fn(&Blame) -> bool = |t| matches!(t, Blame::Module { .. });
    let link: fn(&Blame) -> bool = |t| matches!(t, Blame::Link { .. });
    for (what, journal, expected) in [("chain", chain, module), ("mesh", mesh, link)] {
        let events = Postmortem::events_from_json(&journal).expect("dump parses");
        // (diagnose span, goal) → the devices its walk visited.
        let mut visited: BTreeMap<(u64, u64), BTreeSet<u64>> = BTreeMap::new();
        let mut suspects = Vec::new();
        for e in &events {
            match e.kind {
                TraceKind::FrontierHop { goal, device, .. } => {
                    visited.entry((e.parent, goal)).or_default().insert(device);
                }
                TraceKind::Suspect { goal, target, .. } => {
                    suspects.push(((e.parent, goal), target))
                }
                _ => {}
            }
        }
        assert!(
            suspects.iter().any(|(_, t)| expected(t)),
            "{what}: the fault's kind of suspect is missing: {suspects:?}"
        );
        for (span, target) in &suspects {
            let devices = match *target {
                Blame::Module { device, .. } | Blame::Device { device } => vec![device],
                Blame::Link { a, b } => vec![a, b],
                Blame::Unlocated => vec![],
            };
            let hops = visited.get(span).cloned().unwrap_or_default();
            for d in devices {
                assert!(
                    hops.contains(&d),
                    "{what}: {target:?} names device {d}, not among its walk's hops {hops:?}"
                );
            }
        }
    }
}

/// A recorded chain run — setup, fault, diagnosis polls, repair
/// transactions — leaves a conforming journal and a channel tap that
/// counted the NM's messages by wire category.
#[test]
fn chain_fault_and_repair_journal_conforms_and_the_tap_counts_messages() {
    use conman::netsim::fault::{apply_fault, FaultKind, Misconfiguration};

    let goals = 2usize;
    let mut t: Chain = managed_fanout_chain(4, goals);
    t.discover();
    t.mn.set_recorder(Recorder::new());
    let mut cl = ControlLoop::new(&t.mn, LoopConfig::default())
        .with_client(Box::new(AutonomicClient::new(2)));
    for k in 0..goals {
        let (src, dst, dst_ip) = t.fanout_probe(k);
        let id = t.mn.submit(t.fanout_goal(k));
        cl.track(id, GoalEndpoints { src, dst, dst_ip });
    }
    let setup = cl.run_until_converged(&mut t.mn, 16);
    assert!(setup.converged);

    let faulted = t.core[1];
    apply_fault(
        &mut t.mn.net,
        FaultKind::Misconfigure(Misconfiguration::ClearMplsState { device: faulted }),
    );
    apply_fault(
        &mut t.mn.net,
        FaultKind::Misconfigure(Misconfiguration::FlushPolicyRouting { device: faulted }),
    );
    let run = cl.run_until_converged(&mut t.mn, 12);
    assert!(run.converged, "the loop must repair the fleet");

    // The full-run journal (setup, fault, repair) must conform to the
    // loop's span protocol.
    assert_journal_conforms(
        &t.mn.recorder.journal_json(),
        "chain fault-and-repair journal",
    );

    // The message tap counted wire categories during the run: the
    // Diagnoser's polls and the repair transaction.
    assert!(t.mn.recorder.counter("msg.sent.Telemetry") > 0);
    assert!(t.mn.recorder.counter("msg.sent.Command") > 0);
    // Every notification the NM received was counted, none kept.
    assert_eq!(
        t.mn.recorder.counter("mgmt.notifications"),
        t.mn.recorder.counter("msg.received.Notification")
    );
}

/// A disabled recorder journals nothing and snapshots empty — the no-op
/// hot path.
#[test]
fn disabled_recorder_stays_empty_through_a_full_run() {
    let mut t: Chain = managed_fanout_chain(3, 1);
    t.discover();
    let mut cl = ControlLoop::new(&t.mn, LoopConfig::default())
        .with_client(Box::new(AutonomicClient::new(2)));
    let (src, dst, dst_ip) = t.fanout_probe(0);
    let id = t.mn.submit(t.fanout_goal(0));
    cl.track(id, GoalEndpoints { src, dst, dst_ip });
    let setup = cl.run_until_converged(&mut t.mn, 16);
    assert!(setup.converged);
    assert!(!t.mn.recorder.is_enabled());
    assert_eq!(t.mn.recorder.journal_len(), 0);
    assert_eq!(t.mn.recorder.journal_json(), "[]");
    let snap = t.mn.recorder.snapshot();
    assert_eq!(snap.journal_events, 0);
}

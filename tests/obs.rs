//! Flight-recorder integration tests: journal determinism on a seeded
//! scenario, post-mortem reconstruction from the dump alone, the telemetry
//! history store filling from the loop's flow push reports — and every
//! journal produced here passing the `conman-analyze` conformance checker.

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

/// The history store fills from the loop's `SubscribeFlows` push reports:
/// agents push unsolicited flow deltas whenever a management exchange
/// finds a watched goal's counters moved, so the fault-handling ticks
/// (diagnosis polls, repair transactions) leave a queryable per-goal
/// sample series behind.
#[test]
fn flow_push_reports_populate_the_history_store() {
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

    // Fault the mid-chain router so the loop's diagnosis and repair
    // exchanges give every agent the chance to push its flow deltas.
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

    let series =
        t.mn.recorder
            .with_history(|h| h.keys().collect::<Vec<_>>())
            .expect("recorder is enabled");
    assert!(
        !series.is_empty(),
        "push reports must land in the history store"
    );
    // Each series is queryable: windowed statistics answer without
    // re-polling any device.
    let snap = t.mn.recorder.snapshot();
    assert_eq!(snap.history.len(), series.len());
    for s in &snap.history {
        assert!(s.samples > 0);
        assert!(s.drops_mean.is_some(), "statistics answer from the window");
    }
    // The message tap counted wire categories during the run.
    assert!(
        t.mn.recorder.counter("msg.sent.Telemetry") > 0
            || t.mn.recorder.counter("msg.sent.Command") > 0,
        "the channel tap must have counted NM messages"
    );
    assert!(t.mn.recorder.counter("flow.push_reports") > 0);
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
    assert!(snap.history.is_empty());
}

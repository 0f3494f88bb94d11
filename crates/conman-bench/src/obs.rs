//! Flight-recorder experiment: what the recorder's journal can reconstruct.
//! (What the recorder costs is `obs.tick_overhead_ratio` in `benchmark/`.)
//!
//! **Recorded mesh link-cut** — the link-suspect-aware reroute scenario
//! (`mesh_loop_run`'s cut) re-run with an enabled recorder, returning both
//! the live ground truth (which link was cut, where the fleet landed) and
//! the trace journal, so tests and the `flightrecorder` example can prove
//! the whole story is reconstructible from the dump alone.

use crate::control_loop::mesh_limits;
use conman_core::nm::GoalStatus;
use conman_core::runtime::{ControlLoop, GoalEndpoints, LoopConfig, LoopReport, ReconcileAction};
use conman_diagnose::AutonomicClient;
use conman_modules::{managed_mesh_fanout, ManagedMesh};
use conman_obs::{ObsSnapshot, Recorder};
use mgmt_channel::OutOfBandChannel;

/// Parse a journal dump strictly and run the protocol conformance checker
/// over it, panicking with the full violation list on failure.  The smoke
/// harness and the integration tests lint every journal they produce
/// through this single gate, so a recorder emission bug (unbalanced span,
/// unresolved stage, verify before commit...) fails the run that produced
/// the journal, not just the offline `analyze` pass.
pub fn assert_journal_conforms(journal: &str, what: &str) {
    let events =
        conman_obs::Postmortem::events_from_json(journal).unwrap_or_else(|e| panic!("{what}: {e}"));
    let violations = conman_analyze::check_journal(&events);
    assert!(
        violations.is_empty(),
        "{what}: journal fails conformance ({} violation(s)):\n{}",
        violations.len(),
        violations
            .iter()
            .map(|v| format!("  - {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// A recorded mesh link-cut run: the trace journal plus the live ground
/// truth it must be able to reconstruct.
#[derive(Debug, Clone)]
pub struct RecordedMeshRun {
    /// The post-fault loop run (detection → repair → convergence).
    pub run: LoopReport,
    /// The trace journal as JSON, cleared at fault-injection time so it
    /// contains exactly the fault story (detect, diagnose, repair, verify).
    pub journal: String,
    /// The metrics snapshot at the end of the run.
    pub snapshot: ObsSnapshot,
    /// The cut core link, smaller raw device id first.
    pub cut_link: (u64, u64),
    /// Devices (raw ids) on the fleet's repaired paths — every one of them
    /// was staged by the repair transaction.
    pub new_path_devices: Vec<u64>,
    /// Repair passes that actually touched a goal (the one-pass-reroute
    /// ground truth: exactly 1).
    pub repair_passes: u64,
    /// Did the run end converged with every goal's traffic verified?
    pub converged: bool,
}

/// Re-run the `mesh-link-cut` scenario of the loop experiment with an enabled
/// recorder: converge `goals` goals on the 2×k mesh, clear the journal, cut
/// a core link of the applied path, and let the loop detect, localise and
/// reroute — everything it does landing in the trace journal.
///
/// The scenario is fully seeded (the simulator is deterministic and the
/// journal is timestamped with simulated time only), so two invocations
/// with the same arguments produce **byte-identical** journals.
pub fn recorded_mesh_link_cut(k: usize, goals: usize) -> RecordedMeshRun {
    let mut t: ManagedMesh<OutOfBandChannel> = managed_mesh_fanout(k, goals);
    t.discover();
    t.mn.goals.limits = mesh_limits(k);
    t.mn.set_recorder(Recorder::new());

    let mut cl = ControlLoop::new(&t.mn, LoopConfig::default())
        .with_client(Box::new(AutonomicClient::new(2)));
    let mut ids = Vec::with_capacity(goals);
    for g in 0..goals {
        let (src, dst, dst_ip) = t.fanout_probe(g);
        let id = t.mn.submit(t.fanout_goal(g));
        cl.track(id, GoalEndpoints { src, dst, dst_ip });
        ids.push(id);
    }
    let setup = cl.run_until_converged(&mut t.mn, 16);
    assert!(setup.converged, "fleet must converge during setup");

    // The journal restarts at the fault: the post-mortem story is the
    // fault story, not the (much longer) setup transcript.
    t.mn.recorder.clear();

    let hop = t
        .applied_core_hop(ids[0])
        .expect("the applied path crosses the core");
    let link = t.link(hop.0, hop.1).expect("the hop is a physical link");
    netsim::fault::apply_fault(&mut t.mn.net, netsim::fault::FaultKind::LinkCut(link));

    let run = cl.run_until_converged(&mut t.mn, 12);
    let repair_passes = run
        .ticks
        .iter()
        .filter(|tk| {
            tk.repair.as_ref().is_some_and(|r| {
                r.outcomes
                    .iter()
                    .any(|o| o.action != ReconcileAction::Unchanged)
            })
        })
        .count() as u64;
    let all_active = t.mn.goals.iter().all(|r| r.status == GoalStatus::Active);
    let traffic_ok = (0..goals).all(|g| t.probe_pair(g));
    let cut_link = {
        let (a, b) = (hop.0.as_u64(), hop.1.as_u64());
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    };
    let mut new_path_devices: Vec<u64> = ids
        .iter()
        .filter_map(|id| t.mn.goals.get(*id).and_then(|r| r.applied()))
        .flat_map(|a| a.path.devices())
        .map(|d| d.as_u64())
        .collect();
    new_path_devices.sort_unstable();
    new_path_devices.dedup();

    RecordedMeshRun {
        converged: run.converged && all_active && traffic_ok,
        journal: t.mn.recorder.journal_json(),
        snapshot: t.mn.recorder.snapshot(),
        cut_link,
        new_path_devices,
        repair_passes,
        run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conman_obs::Postmortem;

    #[test]
    fn recorded_mesh_run_converges_and_journals_the_cut() {
        let rec = recorded_mesh_link_cut(2, 2);
        assert!(rec.converged);
        assert_eq!(rec.repair_passes, 1, "one-pass reroute");
        let pm = Postmortem::from_json(&rec.journal).expect("journal parses");
        assert!(pm.blamed_links.contains(&rec.cut_link));
        assert_journal_conforms(&rec.journal, "recorded mesh link-cut journal");
    }
}

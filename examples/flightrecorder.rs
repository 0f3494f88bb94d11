//! Post-mortem from the dump alone: run the recorded mesh link-cut
//! scenario, keep nothing but the trace-journal JSON, and reconstruct the
//! whole fault story — the blamed link, the one-pass reroute, every staged
//! device — without re-running anything or touching live state.
//!
//! ```text
//! cargo run --example flightrecorder
//! ```

use conman::obs::{Postmortem, TraceKind};
use conman_bench::recorded_mesh_link_cut;

fn main() {
    // The link-suspect-aware reroute scenario with the recorder on: eight
    // goals converge on the 2×3 redundant mesh, the journal is cleared, a
    // core link on the applied path is cut, and the loop detects,
    // localises and reroutes. Everything it did is in the journal, and the
    // run ends by auditing every device against the goals' claims.
    let rec = recorded_mesh_link_cut(3, 8);
    println!(
        "live run: converged={} cut_link={:?} repair_passes={}",
        rec.converged, rec.cut_link, rec.repair_passes
    );

    // Simulate the crash-dump workflow: throw the live state away and keep
    // only the serialized journal, as if it had been read back from disk.
    let dump = rec.journal.clone();
    println!(
        "journal dump: {} bytes, {} events\n",
        dump.len(),
        rec.snapshot.journal_events
    );

    // Before trusting the dump, lint it: the conformance checker replays
    // the event stream through the loop's protocol state machine (spans
    // balanced, every staged device resolved exactly once in its epoch, no
    // verify before its pass's commits, time monotone).
    let events = Postmortem::events_from_json(&dump).expect("journal dump parses");
    let violations = conman::analyze::check_journal(&events);
    assert!(
        violations.is_empty(),
        "the recorded run's journal must conform: {violations:?}"
    );
    println!("conformance check: {} events, 0 violations", events.len());

    // Reconstruct the story purely from the dump.
    let pm = Postmortem::from_json(&dump).expect("journal dump parses");
    println!("post-mortem (from the dump alone):");
    println!("  ticks observed:   {}", pm.ticks);
    println!("  degraded goals:   {:?}", pm.degraded_goals);
    println!("  blamed devices:   {:?}", pm.blamed_devices);
    println!("  blamed links:     {:?}", pm.blamed_links);
    println!(
        "  repair passes:    {} ({} effective)",
        pm.repair_passes.len(),
        pm.effective_passes()
    );
    for (i, pass) in pm.repair_passes.iter().enumerate() {
        if pass.staged.is_empty() {
            continue;
        }
        println!(
            "    pass {}: staged {:?}, committed {:?}",
            i + 1,
            pass.staged,
            pass.committed
        );
    }
    println!("  staged devices:   {:?}", pm.staged_devices);
    println!("  verified goals:   {:?}", pm.verified_goals);

    // A few raw spans, to show the causal chain the post-mortem walks.
    println!("\nsample of the causal chain:");
    for ev in events.iter().filter(|e| {
        matches!(
            e.kind,
            TraceKind::Diagnosed { .. } | TraceKind::PlanChosen { .. } | TraceKind::Verify { .. }
        )
    }) {
        println!("  seq={:>3} parent={:?} {:?}", ev.seq, ev.parent, ev.kind);
    }

    // Cross-check the reconstruction against the live ground truth.
    let blamed_ok = pm.blamed_links.contains(&rec.cut_link);
    let staged_ok = rec
        .new_path_devices
        .iter()
        .all(|d| pm.staged_devices.contains(d));
    println!(
        "\ncross-check: blamed link matches cut={} / one-pass reroute={} / all repaired-path devices staged={}",
        blamed_ok,
        pm.effective_passes() == 1,
        staged_ok
    );
    assert!(blamed_ok && staged_ok && pm.effective_passes() == 1);
}

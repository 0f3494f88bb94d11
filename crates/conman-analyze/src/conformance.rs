//! The journal conformance checker: a protocol state machine over
//! `conman-obs` trace events.
//!
//! The autonomic loop writes its journal through span enter/exit calls
//! that never appear in the dump — only each event's `parent` pointer
//! survives.  The checker rebuilds the span stack from those pointers and
//! enforces the protocol the runtime promises:
//!
//! * sequence numbers dense and 1-based, simulated timestamps monotone,
//! * every event parented to an open span ([`Violation::BadParent`]),
//! * spans properly closed — `TickStart` by a final `TickEnd`,
//!   `DiagnoseStart` by a `Diagnosed` for the same goal, `RepairStart` by
//!   a `RepairEnd` of the same epoch — with nothing recorded in a span
//!   after its closing event ([`Violation::UnbalancedSpan`]),
//! * tick ordinals and repair epochs strictly increasing,
//! * every accepted `StageDevice` resolved by at least one `CommitDevice`
//!   or `AbortDevice` before its repair pass ends (or the journal does),
//!   with at most one commit per `(txn, device)`,
//! * no `Verify` probe before its pass committed anything,
//! * inside a tick, every `FrontierHop` and `Suspect` recorded within the
//!   `DiagnoseStart` span of its own goal ([`Violation::StrayWalkEvent`]).
//!
//! A standalone `Diagnosed` (no opening `DiagnoseStart`) is legal: the
//! runtime records one when a diagnosis concludes without a frontier walk,
//! and hand-built journals use the same shorthand.

use crate::violation::Violation;
use conman_obs::{TraceEvent, TraceKind};
use std::collections::BTreeMap;

/// What kind of span a stack frame tracks.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FrameKind {
    Tick,
    Diagnose { goal: u64 },
    Repair { epoch: u64 },
}

/// One open span on the reconstructed stack.
#[derive(Debug)]
struct Frame {
    seq: u64,
    kind: FrameKind,
    /// Sequence number of the closing event, once seen.
    closed_by: Option<u64>,
    /// `CommitDevice { ok: true }` events recorded while this frame was
    /// open — the scope the verify-ordering rule reads.
    commits_ok: u64,
}

/// Lifecycle of one `(txn, device)` staging.
#[derive(Debug, Default)]
struct StageState {
    staged_ok: bool,
    commits: u64,
    aborts: u64,
    /// The repair frame (by opener seq) the stage belongs to, if any.
    repair: Option<u64>,
}

/// Check a journal event list against the loop/transaction protocol.
/// Returns every violation found; an empty vector means the journal
/// conforms.
pub fn check_journal(events: &[TraceEvent]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut stack: Vec<Frame> = Vec::new();
    let mut stages: BTreeMap<(u64, u64), StageState> = BTreeMap::new();
    let mut prev_ns = 0u64;
    let mut last_tick = 0u64;
    let mut last_epoch = 0u64;
    let mut global_commits_ok = 0u64;

    // Close one popped frame: flag never-closed spans and, for repair
    // frames, settle the resolution of every stage the pass made.
    let close_frame = |frame: Frame,
                       stages: &mut BTreeMap<(u64, u64), StageState>,
                       out: &mut Vec<Violation>| {
        if frame.closed_by.is_none() {
            let what = match frame.kind {
                FrameKind::Tick => "TickStart span never closed by a TickEnd",
                FrameKind::Diagnose { .. } => "DiagnoseStart span never concluded by a Diagnosed",
                FrameKind::Repair { .. } => "RepairStart span never closed by a RepairEnd",
            };
            out.push(Violation::UnbalancedSpan {
                seq: frame.seq,
                detail: what.into(),
            });
        }
        if matches!(frame.kind, FrameKind::Repair { .. }) {
            let done: Vec<(u64, u64)> = stages
                .iter()
                .filter(|(_, s)| s.repair == Some(frame.seq))
                .map(|(k, _)| *k)
                .collect();
            for key in done {
                let s = stages.remove(&key).expect("key just listed");
                if s.staged_ok && s.commits + s.aborts == 0 {
                    out.push(Violation::UnresolvedStage {
                        txn: key.0,
                        device: key.1,
                    });
                }
            }
        }
    };

    for (i, e) in events.iter().enumerate() {
        if e.seq != i as u64 + 1 {
            out.push(Violation::BadSequence {
                index: i,
                seq: e.seq,
            });
        }
        if e.at_ns < prev_ns {
            out.push(Violation::TimeRegression {
                seq: e.seq,
                at_ns: e.at_ns,
                prev_ns,
            });
        }
        prev_ns = prev_ns.max(e.at_ns);

        // Unwind the stack to the event's parent: spans between the top
        // and the parent closed implicitly (their exit calls left no
        // event), so settle them now.
        if e.parent == 0 {
            while let Some(f) = stack.pop() {
                close_frame(f, &mut stages, &mut out);
            }
        } else if let Some(pos) = stack.iter().position(|f| f.seq == e.parent) {
            while stack.len() > pos + 1 {
                let f = stack.pop().expect("len checked");
                close_frame(f, &mut stages, &mut out);
            }
        } else {
            out.push(Violation::BadParent {
                seq: e.seq,
                parent: e.parent,
            });
            // Leave the stack as-is and interpret the event against the
            // current top, so one bad pointer doesn't cascade.
        }
        if let Some(top) = stack.last() {
            if top.seq == e.parent {
                if let Some(closer) = top.closed_by {
                    out.push(Violation::UnbalancedSpan {
                        seq: e.seq,
                        detail: format!("recorded in a span already closed by event {closer}"),
                    });
                }
            }
        }

        let enclosing_repair = stack
            .iter()
            .rev()
            .find(|f| matches!(f.kind, FrameKind::Repair { .. }));

        match &e.kind {
            TraceKind::TickStart { tick, .. } => {
                if *tick <= last_tick {
                    out.push(Violation::TickOrder {
                        seq: e.seq,
                        tick: *tick,
                        prev: last_tick,
                    });
                }
                last_tick = last_tick.max(*tick);
                if !stack.is_empty() {
                    out.push(Violation::UnbalancedSpan {
                        seq: e.seq,
                        detail: "tick started inside another open span".into(),
                    });
                }
                stack.push(Frame {
                    seq: e.seq,
                    kind: FrameKind::Tick,
                    closed_by: None,
                    commits_ok: 0,
                });
            }
            TraceKind::TickEnd { .. } => match stack.last_mut() {
                Some(top) if top.kind == FrameKind::Tick => top.closed_by = Some(e.seq),
                _ => out.push(Violation::UnbalancedSpan {
                    seq: e.seq,
                    detail: "TickEnd outside an open tick span".into(),
                }),
            },
            TraceKind::DiagnoseStart { goal } => {
                stack.push(Frame {
                    seq: e.seq,
                    kind: FrameKind::Diagnose { goal: *goal },
                    closed_by: None,
                    commits_ok: 0,
                });
            }
            TraceKind::Diagnosed { goal, .. } => {
                // Closes an open diagnose span if one is on top; a leaf
                // `Diagnosed` anywhere else is legal shorthand.
                if let Some(top) = stack.last_mut() {
                    if let FrameKind::Diagnose { goal: opened } = top.kind {
                        if opened == *goal {
                            top.closed_by = Some(e.seq);
                        } else {
                            out.push(Violation::UnbalancedSpan {
                                seq: e.seq,
                                detail: format!(
                                    "Diagnosed for goal {goal} concludes a span opened for \
                                     goal {opened}"
                                ),
                            });
                        }
                    }
                }
            }
            TraceKind::RepairStart { epoch, .. } => {
                if *epoch <= last_epoch {
                    out.push(Violation::EpochViolation {
                        seq: e.seq,
                        epoch: *epoch,
                        detail: format!(
                            "repair epoch must strictly increase (previous was {last_epoch})"
                        ),
                    });
                }
                last_epoch = last_epoch.max(*epoch);
                stack.push(Frame {
                    seq: e.seq,
                    kind: FrameKind::Repair { epoch: *epoch },
                    closed_by: None,
                    commits_ok: 0,
                });
            }
            TraceKind::RepairEnd { epoch, .. } => match stack.last_mut() {
                Some(top) => {
                    if let FrameKind::Repair { epoch: opened } = top.kind {
                        top.closed_by = Some(e.seq);
                        if opened != *epoch {
                            out.push(Violation::EpochViolation {
                                seq: e.seq,
                                epoch: *epoch,
                                detail: format!(
                                    "RepairEnd closes a pass opened under epoch {opened}"
                                ),
                            });
                        }
                    } else {
                        out.push(Violation::UnbalancedSpan {
                            seq: e.seq,
                            detail: "RepairEnd outside an open repair span".into(),
                        });
                    }
                }
                None => out.push(Violation::UnbalancedSpan {
                    seq: e.seq,
                    detail: "RepairEnd outside an open repair span".into(),
                }),
            },
            TraceKind::StageDevice {
                txn, device, ok, ..
            } => {
                let repair = enclosing_repair.map(|f| f.seq);
                stages.insert(
                    (*txn, *device),
                    StageState {
                        staged_ok: *ok,
                        commits: 0,
                        aborts: 0,
                        repair,
                    },
                );
            }
            TraceKind::CommitDevice { txn, device, ok } => {
                match stages.get_mut(&(*txn, *device)) {
                    Some(s) => {
                        s.commits += 1;
                        if s.commits > 1 {
                            out.push(Violation::DuplicateCommit {
                                seq: e.seq,
                                txn: *txn,
                                device: *device,
                            });
                        }
                    }
                    None => out.push(Violation::UnstagedResolution {
                        seq: e.seq,
                        txn: *txn,
                        device: *device,
                    }),
                }
                if *ok {
                    global_commits_ok += 1;
                    for f in stack.iter_mut() {
                        f.commits_ok += 1;
                    }
                }
            }
            TraceKind::AbortDevice { txn, device } => match stages.get_mut(&(*txn, *device)) {
                Some(s) => s.aborts += 1,
                None => out.push(Violation::UnstagedResolution {
                    seq: e.seq,
                    txn: *txn,
                    device: *device,
                }),
            },
            TraceKind::FrontierHop { goal, .. } | TraceKind::Suspect { goal, .. } => {
                // After the unwind above, the stack is the event's ancestors.
                let in_tick = stack.iter().any(|f| f.kind == FrameKind::Tick);
                let own = FrameKind::Diagnose { goal: *goal };
                if in_tick && !stack.iter().any(|f| f.kind == own) {
                    out.push(Violation::StrayWalkEvent {
                        seq: e.seq,
                        goal: *goal,
                    });
                }
            }
            TraceKind::Verify { goal, .. } => {
                // Scope: the enclosing repair pass if any, else the
                // enclosing tick, else the whole journal so far.
                let scope_commits = enclosing_repair
                    .map(|f| f.commits_ok)
                    .or_else(|| {
                        stack
                            .iter()
                            .rev()
                            .find(|f| f.kind == FrameKind::Tick)
                            .map(|f| f.commits_ok)
                    })
                    .unwrap_or(global_commits_ok);
                if scope_commits == 0 {
                    out.push(Violation::VerifyBeforeCommit {
                        seq: e.seq,
                        goal: *goal,
                    });
                }
            }
            _ => {}
        }
    }

    while let Some(f) = stack.pop() {
        close_frame(f, &mut stages, &mut out);
    }
    for (key, s) in &stages {
        if s.staged_ok && s.commits + s.aborts == 0 {
            out.push(Violation::UnresolvedStage {
                txn: key.0,
                device: key.1,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use conman_obs::{Blame, GoalStatus, Journal, ReconcileAction};

    fn hop(goal: u64) -> TraceKind {
        TraceKind::FrontierHop {
            goal,
            device: 2,
            arrived: 2,
            moved_on: 0,
            dropped: 2,
        }
    }

    fn suspect(goal: u64) -> TraceKind {
        TraceKind::Suspect {
            goal,
            target: Blame::Device { device: 2 },
            confidence_pct: 60,
        }
    }

    fn diagnosed(goal: u64) -> TraceKind {
        TraceKind::Diagnosed {
            goal,
            blamed_device: Some(2),
            blamed_link: None,
            exclusions: 1,
        }
    }

    /// A minimal well-formed journal: one tick with a diagnosis (its walk
    /// inside its span) and a repair pass that stages, commits, verifies
    /// and closes.
    fn clean_journal() -> Journal {
        let mut j = Journal::default();
        j.enter(10, TraceKind::TickStart { tick: 1, epoch: 0 });
        j.record(
            10,
            TraceKind::HealthProbe {
                goal: 5,
                sent: 2,
                delivered: 0,
                healthy: false,
            },
        );
        j.enter(11, TraceKind::DiagnoseStart { goal: 5 });
        j.record(11, hop(5));
        j.record(11, suspect(5));
        j.record(11, diagnosed(5));
        j.exit();
        j.enter(12, TraceKind::RepairStart { epoch: 1, goals: 1 });
        j.record(
            12,
            TraceKind::PlanChosen {
                goal: 5,
                path_len: 3,
                excluded: 1,
            },
        );
        for d in [1, 2, 3] {
            j.record(
                12,
                TraceKind::StageDevice {
                    txn: 7,
                    device: d,
                    segments: 1,
                    ok: true,
                },
            );
        }
        for d in [3, 2, 1] {
            j.record(
                13,
                TraceKind::CommitDevice {
                    txn: 7,
                    device: d,
                    ok: true,
                },
            );
        }
        j.record(13, TraceKind::Verify { goal: 5, ok: true });
        j.record(
            13,
            TraceKind::RepairEnd {
                epoch: 1,
                transactions: 1,
            },
        );
        j.exit();
        j.record(
            14,
            TraceKind::TickEnd {
                events: 0,
                nm_sent: 9,
                nm_received: 9,
                frames: 4,
            },
        );
        j.exit();
        j
    }

    fn corrupt(j: &Journal, f: impl Fn(&mut Vec<TraceEvent>)) -> Vec<TraceEvent> {
        let mut events = j.events().to_vec();
        f(&mut events);
        events
    }

    #[test]
    fn a_well_formed_journal_conforms() {
        assert_eq!(check_journal(clean_journal().events()), vec![]);
    }

    #[test]
    fn an_empty_journal_conforms() {
        assert_eq!(check_journal(&[]), vec![]);
    }

    #[test]
    fn a_gap_in_sequence_numbers_fires_bad_sequence() {
        let events = corrupt(&clean_journal(), |ev| ev[3].seq = 99);
        let vs = check_journal(&events);
        assert!(
            vs.iter()
                .any(|v| matches!(v, Violation::BadSequence { index: 3, seq: 99 })),
            "expected a BadSequence, got {vs:?}"
        );
    }

    #[test]
    fn a_backwards_timestamp_fires_time_regression() {
        let events = corrupt(&clean_journal(), |ev| ev[5].at_ns = 1);
        let vs = check_journal(&events);
        assert!(
            vs.iter()
                .any(|v| matches!(v, Violation::TimeRegression { at_ns: 1, .. })),
            "expected a TimeRegression, got {vs:?}"
        );
    }

    #[test]
    fn a_dangling_parent_pointer_fires_bad_parent() {
        let events = corrupt(&clean_journal(), |ev| ev[2].parent = 77);
        let vs = check_journal(&events);
        assert!(
            vs.iter()
                .any(|v| matches!(v, Violation::BadParent { parent: 77, .. })),
            "expected a BadParent, got {vs:?}"
        );
    }

    #[test]
    fn a_tick_without_tick_end_fires_unbalanced_span() {
        let events = corrupt(&clean_journal(), |ev| {
            let n = ev.len();
            ev.remove(n - 1); // drop the TickEnd
        });
        let vs = check_journal(&events);
        assert!(
            vs.iter()
                .any(|v| matches!(v, Violation::UnbalancedSpan { .. })),
            "expected an UnbalancedSpan, got {vs:?}"
        );
    }

    #[test]
    fn a_diagnosis_that_never_concludes_fires_unbalanced_span() {
        // Remove the Diagnosed event: its DiagnoseStart span implicitly
        // closes when the RepairStart shows up parented to the tick.
        let events = corrupt(&clean_journal(), |ev| {
            let pos = ev
                .iter()
                .position(|e| matches!(e.kind, TraceKind::Diagnosed { .. }))
                .unwrap();
            ev.remove(pos);
        });
        let vs = check_journal(&events);
        assert!(vs.iter().any(|v| matches!(
            v,
            Violation::UnbalancedSpan { .. } | Violation::BadSequence { .. }
        )));
        assert!(vs
            .iter()
            .any(|v| matches!(v, Violation::UnbalancedSpan { .. })));
    }

    #[test]
    fn a_stale_tick_ordinal_fires_tick_order() {
        let mut j = clean_journal();
        // A second tick reusing ordinal 1.
        j.enter(20, TraceKind::TickStart { tick: 1, epoch: 1 });
        j.record(
            20,
            TraceKind::TickEnd {
                events: 0,
                nm_sent: 0,
                nm_received: 0,
                frames: 0,
            },
        );
        j.exit();
        let vs = check_journal(j.events());
        assert!(
            vs.iter().any(|v| matches!(
                v,
                Violation::TickOrder {
                    tick: 1,
                    prev: 1,
                    ..
                }
            )),
            "expected a TickOrder, got {vs:?}"
        );
    }

    #[test]
    fn a_non_increasing_repair_epoch_fires_epoch_violation() {
        let mut j = clean_journal();
        j.enter(20, TraceKind::TickStart { tick: 2, epoch: 1 });
        j.enter(20, TraceKind::RepairStart { epoch: 1, goals: 1 }); // epoch 1 again
        j.record(
            21,
            TraceKind::RepairEnd {
                epoch: 1,
                transactions: 0,
            },
        );
        j.exit();
        j.record(
            21,
            TraceKind::TickEnd {
                events: 0,
                nm_sent: 0,
                nm_received: 0,
                frames: 0,
            },
        );
        j.exit();
        let vs = check_journal(j.events());
        assert!(
            vs.iter()
                .any(|v| matches!(v, Violation::EpochViolation { epoch: 1, .. })),
            "expected an EpochViolation, got {vs:?}"
        );
    }

    #[test]
    fn a_mismatched_repair_end_epoch_fires_epoch_violation() {
        let events = corrupt(&clean_journal(), |ev| {
            for e in ev.iter_mut() {
                if let TraceKind::RepairEnd { epoch, .. } = &mut e.kind {
                    *epoch = 9;
                }
            }
        });
        let vs = check_journal(&events);
        assert!(vs
            .iter()
            .any(|v| matches!(v, Violation::EpochViolation { epoch: 9, .. })));
    }

    #[test]
    fn an_unresolved_stage_fires_when_its_pass_ends() {
        let events = corrupt(&clean_journal(), |ev| {
            // Drop device 2's commit: its accepted stage is never resolved.
            let pos = ev
                .iter()
                .position(|e| matches!(e.kind, TraceKind::CommitDevice { device: 2, .. }))
                .unwrap();
            ev.remove(pos);
        });
        let vs = check_journal(&events);
        assert!(
            vs.iter()
                .any(|v| matches!(v, Violation::UnresolvedStage { txn: 7, device: 2 })),
            "expected an UnresolvedStage, got {vs:?}"
        );
    }

    #[test]
    fn a_commit_for_an_unstaged_device_fires_unstaged_resolution() {
        let events = corrupt(&clean_journal(), |ev| {
            for e in ev.iter_mut() {
                if let TraceKind::StageDevice { device, .. } = &mut e.kind {
                    if *device == 3 {
                        *device = 9; // the commit for device 3 now dangles
                    }
                }
            }
        });
        let vs = check_journal(&events);
        assert!(
            vs.iter()
                .any(|v| matches!(v, Violation::UnstagedResolution { device: 3, .. })),
            "expected an UnstagedResolution, got {vs:?}"
        );
    }

    #[test]
    fn a_double_commit_fires_duplicate_commit() {
        let events = corrupt(&clean_journal(), |ev| {
            for e in ev.iter_mut() {
                if let TraceKind::CommitDevice { device, .. } = &mut e.kind {
                    if *device == 1 {
                        *device = 3; // device 3 now commits twice
                    }
                }
            }
        });
        let vs = check_journal(&events);
        assert!(
            vs.iter()
                .any(|v| matches!(v, Violation::DuplicateCommit { device: 3, .. })),
            "expected a DuplicateCommit, got {vs:?}"
        );
    }

    #[test]
    fn a_verify_before_any_commit_fires_verify_before_commit() {
        let events = corrupt(&clean_journal(), |ev| {
            // Move the Verify to just after the stages, before any commit.
            let vpos = ev
                .iter()
                .position(|e| matches!(e.kind, TraceKind::Verify { .. }))
                .unwrap();
            let verify = ev.remove(vpos);
            let cpos = ev
                .iter()
                .position(|e| matches!(e.kind, TraceKind::CommitDevice { .. }))
                .unwrap();
            ev.insert(cpos, verify);
            for (i, e) in ev.iter_mut().enumerate() {
                e.seq = i as u64 + 1; // renumber so only the ordering is corrupt
            }
        });
        let vs = check_journal(&events);
        assert!(
            vs.iter()
                .any(|v| matches!(v, Violation::VerifyBeforeCommit { goal: 5, .. })),
            "expected a VerifyBeforeCommit, got {vs:?}"
        );
    }

    #[test]
    fn an_event_after_its_spans_closing_event_fires_unbalanced_span() {
        let j = clean_journal();
        // The tick span was closed by TickEnd; splice another child in
        // after it (the journal API itself would never produce this).
        let tick_seq = j.events()[0].seq;
        let mut events = j.events().to_vec();
        let n = events.len();
        events.push(TraceEvent {
            seq: n as u64 + 1,
            parent: tick_seq,
            at_ns: 15,
            kind: TraceKind::Note {
                text: "late".into(),
            },
        });
        let vs = check_journal(&events);
        assert!(
            vs.iter().any(|v| matches!(
                v,
                Violation::UnbalancedSpan { detail, .. } if detail.contains("already closed")
            )),
            "expected an UnbalancedSpan for the late event, got {vs:?}"
        );
    }

    /// A tick that measured two goals together and then walked both before
    /// opening either goal's span: every walk event escapes to the tick.
    #[test]
    fn a_walk_recorded_before_its_diagnose_span_fires_stray_walk_event() {
        let mut j = Journal::default();
        j.enter(10, TraceKind::TickStart { tick: 1, epoch: 0 });
        for goal in [5, 6] {
            j.record(11, hop(goal));
            j.record(11, suspect(goal));
        }
        for goal in [5, 6] {
            j.enter(11, TraceKind::DiagnoseStart { goal });
            j.record(11, diagnosed(goal));
            j.exit();
        }
        j.record(
            12,
            TraceKind::TickEnd {
                events: 0,
                nm_sent: 20,
                nm_received: 20,
                frames: 8,
            },
        );
        j.exit();
        let stray: Vec<(u64, u64)> = check_journal(j.events())
            .into_iter()
            .map(|v| match v {
                Violation::StrayWalkEvent { seq, goal } => (seq, goal),
                other => panic!("only stray walk events expected, got {other:?}"),
            })
            .collect();
        assert_eq!(stray, vec![(2, 5), (3, 5), (4, 6), (5, 6)]);
    }

    #[test]
    fn a_walk_inside_another_goals_span_fires_stray_walk_event() {
        let mut j = clean_journal();
        j.enter(20, TraceKind::TickStart { tick: 2, epoch: 1 });
        j.enter(20, TraceKind::DiagnoseStart { goal: 5 });
        j.record(20, hop(6));
        j.record(20, diagnosed(5));
        j.exit();
        j.record(
            21,
            TraceKind::TickEnd {
                events: 0,
                nm_sent: 0,
                nm_received: 0,
                frames: 0,
            },
        );
        j.exit();
        let vs = check_journal(j.events());
        assert!(
            matches!(vs[..], [Violation::StrayWalkEvent { goal: 6, .. }]),
            "expected one StrayWalkEvent, got {vs:?}"
        );
    }

    /// A diagnosis called directly, outside any tick, records its walk at
    /// top level; that is not a loop journal and conforms.
    #[test]
    fn a_walk_outside_any_tick_conforms() {
        let mut j = Journal::default();
        j.record(5, hop(1));
        j.record(5, suspect(1));
        assert_eq!(check_journal(j.events()), vec![]);
    }

    /// Journals recorded outside the loop (direct `reconcile` calls) have
    /// no spans at all — everything is top-level.  They still conform.
    #[test]
    fn a_flat_reconcile_journal_conforms() {
        let mut j = Journal::default();
        j.record(
            5,
            TraceKind::PlanChosen {
                goal: 1,
                path_len: 2,
                excluded: 0,
            },
        );
        j.record(
            5,
            TraceKind::StageDevice {
                txn: 1,
                device: 4,
                segments: 1,
                ok: true,
            },
        );
        j.record(
            6,
            TraceKind::CommitDevice {
                txn: 1,
                device: 4,
                ok: true,
            },
        );
        j.record(6, TraceKind::Verify { goal: 1, ok: true });
        j.record(
            6,
            TraceKind::GoalOutcome {
                goal: 1,
                action: ReconcileAction::Applied,
                status: GoalStatus::Active,
            },
        );
        assert_eq!(check_journal(j.events()), vec![]);
    }

    /// A stage rejected by the device (`ok: false`) needs no resolution.
    #[test]
    fn a_rejected_stage_needs_no_resolution() {
        let mut j = Journal::default();
        j.record(
            5,
            TraceKind::StageDevice {
                txn: 1,
                device: 4,
                segments: 1,
                ok: false,
            },
        );
        assert_eq!(check_journal(j.events()), vec![]);
    }
}

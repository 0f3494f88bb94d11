//! Post-mortem reconstruction: rebuild what a run did from its journal
//! dump alone — no simulation, no live `ManagedNetwork`.
//!
//! The [`Postmortem`] walks a dumped event list and recovers the facts an
//! operator asks after a failure: which component was blamed, how many
//! repair passes ran and what each staged/committed, which goals verified.
//! This is the acceptance check for the journal's purpose: a failed
//! scenario must be explainable from its dump.

use crate::journal::{GoalStatus, ReconcileAction, TraceEvent, TraceKind};
use std::collections::BTreeSet;
use std::fmt;

/// Why a journal dump was rejected.
///
/// Parsing is **strict**: an unknown event kind, a malformed field, a
/// non-dense sequence numbering or a parent pointing at a not-yet-recorded
/// event all fail the whole dump.  Silent skips would mask exactly the
/// corruption the conformance checker exists to catch, so the reconstruction
/// refuses to guess.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DumpError {
    /// Zero-based position of the offending event in the dump, when the
    /// failure is attributable to one (`None`: the dump is not a JSON
    /// array of events at all).
    pub event: Option<usize>,
    /// What was wrong.
    pub detail: String,
}

impl fmt::Display for DumpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.event {
            Some(i) => write!(f, "journal dump rejected at event {i}: {}", self.detail),
            None => write!(f, "journal dump rejected: {}", self.detail),
        }
    }
}

impl std::error::Error for DumpError {}

/// One reconstructed repair pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepairPass {
    /// The pass's repair epoch.
    pub epoch: u64,
    /// Devices the pass staged.
    pub staged: BTreeSet<u64>,
    /// Devices the pass committed.
    pub committed: BTreeSet<u64>,
    /// Devices whose staged state the pass aborted.
    pub aborted: BTreeSet<u64>,
    /// Per-goal `(goal, action, status)` outcomes of the pass, in order.
    pub outcomes: Vec<(u64, ReconcileAction, GoalStatus)>,
}

impl RepairPass {
    /// Did the pass change anything (any outcome beyond `Unchanged`)?
    pub fn touched(&self) -> bool {
        self.outcomes
            .iter()
            .any(|(_, action, _)| *action != ReconcileAction::Unchanged)
    }
}

/// Facts reconstructed from a journal dump.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Postmortem {
    /// Ticks the journal covers.
    pub ticks: u64,
    /// Goals the health phase ever reported unhealthy.
    pub degraded_goals: BTreeSet<u64>,
    /// Devices any diagnosis blamed.
    pub blamed_devices: BTreeSet<u64>,
    /// Links any diagnosis blamed (smaller device id first).
    pub blamed_links: BTreeSet<(u64, u64)>,
    /// Every repair pass, in order.
    pub repair_passes: Vec<RepairPass>,
    /// Union of devices staged across all passes.
    pub staged_devices: BTreeSet<u64>,
    /// Goals whose end-to-end verification probe succeeded at least once.
    pub verified_goals: BTreeSet<u64>,
}

impl Postmortem {
    /// Reconstruct from a journal dump (the JSON array produced by
    /// `Recorder::journal_json`).  Strict: any unknown or malformed event
    /// rejects the dump with the offending event's position (see
    /// [`DumpError`]).
    pub fn from_json(dump: &str) -> Result<Self, DumpError> {
        Ok(Self::from_events(&Self::events_from_json(dump)?))
    }

    /// Parse a journal dump back into its raw event list, for callers that
    /// want to walk the causal chain themselves.  Each event is decoded
    /// individually so corruption is reported by position, and the list's
    /// structure is validated: sequence numbers dense and 1-based, every
    /// parent pointer referencing an earlier event (or 0).
    pub fn events_from_json(dump: &str) -> Result<Vec<TraceEvent>, DumpError> {
        let values: Vec<serde_json::Value> = serde_json::from_str(dump).map_err(|e| DumpError {
            event: None,
            detail: e.to_string(),
        })?;
        let mut events: Vec<TraceEvent> = Vec::with_capacity(values.len());
        for (i, v) in values.iter().enumerate() {
            let ev = serde_json::from_value(v).map_err(|e| DumpError {
                event: Some(i),
                detail: e.to_string(),
            })?;
            events.push(ev);
        }
        for (i, e) in events.iter().enumerate() {
            let expected = i as u64 + 1;
            if e.seq != expected {
                return Err(DumpError {
                    event: Some(i),
                    detail: format!("sequence number {} (expected {expected})", e.seq),
                });
            }
            if e.parent >= e.seq {
                return Err(DumpError {
                    event: Some(i),
                    detail: format!("parent {} does not reference an earlier event", e.parent),
                });
            }
        }
        Ok(events)
    }

    /// Reconstruct from an in-memory event list.
    pub(crate) fn from_events(events: &[TraceEvent]) -> Self {
        let mut pm = Postmortem::default();
        let mut pass: Option<RepairPass> = None;
        for e in events {
            match &e.kind {
                TraceKind::TickStart { tick, .. } => pm.ticks = pm.ticks.max(*tick),
                TraceKind::HealthProbe { goal, healthy, .. } if !healthy => {
                    pm.degraded_goals.insert(*goal);
                }
                TraceKind::Diagnosed {
                    blamed_device,
                    blamed_link,
                    ..
                } => {
                    if let Some(d) = blamed_device {
                        pm.blamed_devices.insert(*d);
                    }
                    if let Some(l) = blamed_link {
                        pm.blamed_links.insert(*l);
                    }
                }
                TraceKind::RepairStart { epoch, .. } => {
                    if let Some(done) = pass.take() {
                        pm.repair_passes.push(done);
                    }
                    pass = Some(RepairPass {
                        epoch: *epoch,
                        ..Default::default()
                    });
                }
                TraceKind::StageDevice { device, ok, .. } if *ok => {
                    pm.staged_devices.insert(*device);
                    if let Some(p) = pass.as_mut() {
                        p.staged.insert(*device);
                    }
                }
                TraceKind::CommitDevice { device, ok, .. } if *ok => {
                    if let Some(p) = pass.as_mut() {
                        p.committed.insert(*device);
                    }
                }
                TraceKind::AbortDevice { device, .. } => {
                    if let Some(p) = pass.as_mut() {
                        p.aborted.insert(*device);
                    }
                }
                TraceKind::GoalOutcome {
                    goal,
                    action,
                    status,
                } => {
                    if let Some(p) = pass.as_mut() {
                        p.outcomes.push((*goal, *action, *status));
                    }
                }
                TraceKind::Verify { goal, ok } if *ok => {
                    pm.verified_goals.insert(*goal);
                }
                TraceKind::RepairEnd { .. } => {
                    if let Some(done) = pass.take() {
                        pm.repair_passes.push(done);
                    }
                }
                _ => {}
            }
        }
        if let Some(done) = pass.take() {
            pm.repair_passes.push(done);
        }
        pm
    }

    /// Repair passes that actually changed something.
    pub fn effective_passes(&self) -> usize {
        self.repair_passes.iter().filter(|p| p.touched()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Journal;

    #[test]
    fn reconstructs_blame_passes_and_staged_devices_from_a_dump() {
        let mut j = Journal::default();
        j.enter(1, TraceKind::TickStart { tick: 1, epoch: 0 });
        j.record(
            1,
            TraceKind::HealthProbe {
                goal: 5,
                sent: 2,
                delivered: 0,
                healthy: false,
            },
        );
        j.record(
            1,
            TraceKind::Diagnosed {
                goal: 5,
                blamed_device: None,
                blamed_link: Some((10, 11)),
                exclusions: 1,
            },
        );
        j.enter(2, TraceKind::RepairStart { epoch: 1, goals: 1 });
        for d in [10, 12, 13] {
            j.record(
                2,
                TraceKind::StageDevice {
                    txn: 1,
                    device: d,
                    segments: 1,
                    ok: true,
                },
            );
        }
        for d in [13, 12, 10] {
            j.record(
                2,
                TraceKind::CommitDevice {
                    txn: 1,
                    device: d,
                    ok: true,
                },
            );
        }
        j.record(2, TraceKind::Verify { goal: 5, ok: true });
        j.record(
            2,
            TraceKind::GoalOutcome {
                goal: 5,
                action: ReconcileAction::Applied,
                status: GoalStatus::Active,
            },
        );
        j.record(
            2,
            TraceKind::RepairEnd {
                epoch: 1,
                transactions: 1,
            },
        );
        j.exit();
        j.exit();

        let pm = Postmortem::from_json(&j.to_json()).unwrap();
        assert_eq!(pm.ticks, 1);
        assert_eq!(pm.degraded_goals, BTreeSet::from([5]));
        assert_eq!(pm.blamed_links, BTreeSet::from([(10, 11)]));
        assert!(pm.blamed_devices.is_empty());
        assert_eq!(pm.repair_passes.len(), 1);
        assert_eq!(pm.effective_passes(), 1);
        assert_eq!(pm.staged_devices, BTreeSet::from([10, 12, 13]));
        assert_eq!(pm.repair_passes[0].committed, BTreeSet::from([10, 12, 13]));
        assert_eq!(
            pm.repair_passes[0].outcomes,
            [(5, ReconcileAction::Applied, GoalStatus::Active)]
        );
        assert_eq!(pm.verified_goals, BTreeSet::from([5]));
    }

    /// A small genuine dump to corrupt by hand.
    fn valid_dump() -> String {
        let mut j = Journal::default();
        j.enter(1, TraceKind::TickStart { tick: 1, epoch: 0 });
        j.record(2, TraceKind::Submit { goal: 3 });
        j.record(
            2,
            TraceKind::GoalOutcome {
                goal: 3,
                action: ReconcileAction::Applied,
                status: GoalStatus::Active,
            },
        );
        j.record(
            2,
            TraceKind::TickEnd {
                events: 1,
                nm_sent: 0,
                nm_received: 0,
                frames: 0,
            },
        );
        j.exit();
        j.to_json()
    }

    #[test]
    fn an_unknown_event_kind_rejects_the_dump_with_its_position() {
        let corrupted = valid_dump().replace("\"Submit\"", "\"SubmitFromTheFuture\"");
        let err = Postmortem::from_json(&corrupted).expect_err("unknown kinds must not parse");
        assert_eq!(err.event, Some(1), "the corrupt event is at position 1");
        let err2 = Postmortem::events_from_json(&corrupted).expect_err("same for the raw list");
        assert_eq!(err2, err);
    }

    #[test]
    fn a_malformed_field_rejects_the_dump_with_its_position() {
        let corrupted = valid_dump().replace("{\"goal\":3}", "{\"goal\":\"three\"}");
        assert_ne!(corrupted, valid_dump(), "the corruption must have landed");
        let err = Postmortem::from_json(&corrupted).expect_err("malformed fields must not parse");
        assert_eq!(err.event, Some(1));
    }

    #[test]
    fn an_outcome_naming_an_unknown_action_or_status_rejects_the_dump() {
        for (field, name) in [("Applied", "Healed"), ("Active", "Fine")] {
            let corrupted = valid_dump().replace(&format!("\"{field}\""), &format!("\"{name}\""));
            assert_ne!(corrupted, valid_dump(), "the corruption must have landed");
            let err = Postmortem::from_json(&corrupted).expect_err("only the closed enums parse");
            assert_eq!(err.event, Some(2), "the outcome is at position 2");
        }
    }

    #[test]
    fn non_json_input_is_rejected_without_an_event_position() {
        let err = Postmortem::from_json("not a journal").expect_err("garbage must not parse");
        assert_eq!(err.event, None);
    }

    #[test]
    fn a_gap_in_sequence_numbers_rejects_the_dump() {
        // Renumber the second event: the dump's events are no longer dense.
        let corrupted = valid_dump().replace("\"seq\":2", "\"seq\":7");
        let err = Postmortem::from_json(&corrupted).expect_err("gaps must not parse");
        assert_eq!(err.event, Some(1));
        assert!(err.detail.contains("expected 2"), "got: {err}");
    }

    #[test]
    fn a_forward_parent_pointer_rejects_the_dump() {
        // Event 2's parent claims event 9, which does not exist yet.
        let corrupted = valid_dump().replace("\"parent\":1,\"seq\":2", "\"parent\":9,\"seq\":2");
        assert_ne!(corrupted, valid_dump(), "the corruption must have landed");
        let err = Postmortem::from_json(&corrupted).expect_err("forward parents must not parse");
        assert_eq!(err.event, Some(1));
    }
}

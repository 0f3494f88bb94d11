//! The structured trace journal: causally-linked span events.
//!
//! Every event carries a monotonically increasing sequence number and the
//! sequence number of its *parent* span (0 for top-level events).  An event
//! recorded with [`Journal::enter`] opens a span — subsequent events nest
//! under it until the matching [`Journal::exit`] — so the tick → health →
//! diagnose → repair → stage/commit → verify causality of the autonomic
//! loop is reconstructible from the flat event list alone.
//!
//! Timestamps are **simulated** nanoseconds only: nothing in an event
//! depends on wall time, allocator state or hashing order, so the same
//! seeded scenario yields a byte-identical journal on every run and a
//! failed run can be post-mortemed from its dump (see
//! [`crate::postmortem`]) without re-running the simulation.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One journal entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Monotonic sequence number, unique within a journal (1-based).
    pub seq: u64,
    /// Sequence number of the enclosing span's opening event (0 = none).
    pub parent: u64,
    /// Simulated time of the event, nanoseconds.
    pub at_ns: u64,
    /// What happened.
    pub kind: TraceKind,
}

/// The journal's event taxonomy.  Identifiers are raw integers — goal ids
/// are `GoalId.0`, device ids are `DeviceId::as_u64()` — so the journal
/// format does not depend on the management layers above this crate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceKind {
    /// A loop tick began (span: everything the tick did nests under it).
    TickStart {
        /// 1-based tick ordinal.
        tick: u64,
        /// Repair epoch at the start of the tick.
        epoch: u64,
    },
    /// A loop tick finished (recorded inside the tick's span).
    TickEnd {
        /// Events the tick drained from the NM stream.
        events: u64,
        /// NM management messages sent during the tick.
        nm_sent: u64,
        /// NM management messages received during the tick.
        nm_received: u64,
        /// Link-level frames the network delivered during the tick.
        frames: u64,
    },
    /// A goal was submitted through the control loop.
    Submit {
        /// The new goal's id.
        goal: u64,
    },
    /// A goal was withdrawn (its teardown ran in the tick's batch).
    Withdraw {
        /// The withdrawn goal's id.
        goal: u64,
    },
    /// One health-phase probe burst for one goal.
    HealthProbe {
        /// The probed goal.
        goal: u64,
        /// Probes sent.
        sent: u64,
        /// Probes attributed as delivered to the goal's sink.
        delivered: u64,
        /// Did the burst leave the goal healthy?
        healthy: bool,
    },
    /// Diagnosis of one degraded goal began (span: frontier-walk events
    /// nest under it).
    DiagnoseStart {
        /// The degraded goal.
        goal: u64,
    },
    /// One device of the diagnosis frontier walk: the flow's per-device
    /// counter deltas over the measurement window.
    FrontierHop {
        /// The diagnosed goal (the flow tag).
        goal: u64,
        /// The device inspected.
        device: u64,
        /// Packets of the flow that reached the device (forwarded +
        /// delivered + originated).
        arrived: u64,
        /// Packets the device moved onward or delivered.
        moved_on: u64,
        /// Packets the device dropped during the window.
        dropped: u64,
    },
    /// One suspect the frontier walk produced.  The goal's first `Suspect`
    /// is its prime suspect.
    Suspect {
        /// The diagnosed goal.
        goal: u64,
        /// What the suspect blames.
        target: Blame,
        /// Suspicion strength, 0–100 (ordinal, not a probability).
        confidence_pct: u8,
    },
    /// Diagnosis of one goal concluded.
    Diagnosed {
        /// The diagnosed goal.
        goal: u64,
        /// Device the prime suspect blames, if any.
        blamed_device: Option<u64>,
        /// Physical link blamed, if any (smaller device id first).
        blamed_link: Option<(u64, u64)>,
        /// Exclusions handed to the re-planner.
        exclusions: u64,
    },
    /// A batched repair pass began (span: plan/stage/commit/verify events
    /// nest under it).
    RepairStart {
        /// The pass's repair epoch.
        epoch: u64,
        /// Goals needing work when the pass started.
        goals: u64,
    },
    /// The re-planner chose a path for one goal.
    PlanChosen {
        /// The re-planned goal.
        goal: u64,
        /// Module-path length (number of module hops).
        path_len: u64,
        /// Size of the goal's exclusion set at planning time.
        excluded: u64,
    },
    /// One device's stage step of a transaction.
    StageDevice {
        /// Transaction id.
        txn: u64,
        /// The staged device.
        device: u64,
        /// Per-goal script segments staged on the device (1 for a
        /// single-goal transaction).
        segments: u64,
        /// Did the device accept the stage?
        ok: bool,
    },
    /// One device's commit step of a transaction.
    CommitDevice {
        /// Transaction id.
        txn: u64,
        /// The committed device.
        device: u64,
        /// Did the device acknowledge the commit?
        ok: bool,
    },
    /// One device's abort/rollback step of a transaction.
    AbortDevice {
        /// Transaction id.
        txn: u64,
        /// The device whose staged state was discarded.
        device: u64,
    },
    /// End-to-end verification probe of one repaired goal.
    Verify {
        /// The verified goal.
        goal: u64,
        /// Did the probe arrive at the goal's sink?
        ok: bool,
    },
    /// One goal's outcome of a reconcile pass.
    GoalOutcome {
        /// The goal.
        goal: u64,
        /// What the pass did for the goal.
        action: ReconcileAction,
        /// Goal lifecycle status after the pass.
        status: GoalStatus,
    },
    /// A batched repair pass finished (recorded inside the pass's span).
    RepairEnd {
        /// The pass's repair epoch.
        epoch: u64,
        /// Transactions the pass ran.
        transactions: u64,
    },
    /// Free-form annotation (harnesses and examples).
    Note {
        /// The annotation.
        text: String,
    },
}

/// What a diagnosis suspect blames, spelled in the journal's raw ids: the
/// device ids are the ones `FrontierHop`, `Diagnosed` and `StageDevice`
/// carry, so a suspect joins its goal's hops from the dump alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Blame {
    /// One module of one device.
    Module {
        /// The module's device.
        device: u64,
        /// The module's id on that device (`ModuleId.0`).
        module: u32,
    },
    /// The physical pipe between two adjacent devices, in path order.
    Link {
        /// Device on the near side.
        a: u64,
        /// Device on the far side.
        b: u64,
    },
    /// A whole device.
    Device {
        /// The device.
        device: u64,
    },
    /// The loss is outside the managed path.
    Unlocated,
}

/// Where a goal is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GoalStatus {
    /// Declared (or updated) but not yet applied to the network; the next
    /// `reconcile()` will plan and execute it.
    Pending,
    /// The applied configuration matches the desired goal as far as the NM
    /// knows.
    Active,
    /// The goal is configured but probes or diagnosis say it is not carrying
    /// traffic; `reconcile()` will re-plan it (avoiding any recorded
    /// suspects).
    Degraded,
    /// A repair attempt is in flight.
    Repairing,
    /// Planning or execution gave up (e.g. no path avoids the suspects);
    /// the goal is left alone until it is updated or its failure cleared.
    Failed,
}

impl GoalStatus {
    /// Does this status ask `reconcile()` to (re)apply the goal?
    pub fn needs_work(self) -> bool {
        matches!(
            self,
            GoalStatus::Pending | GoalStatus::Degraded | GoalStatus::Repairing
        )
    }
}

impl fmt::Display for GoalStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GoalStatus::Pending => "pending",
            GoalStatus::Active => "active",
            GoalStatus::Degraded => "degraded",
            GoalStatus::Repairing => "repairing",
            GoalStatus::Failed => "failed",
        };
        f.write_str(s)
    }
}

/// What `reconcile()` did for one goal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReconcileAction {
    /// The goal was already converged; nothing was sent.
    Unchanged,
    /// The goal was planned and its transaction committed.
    Applied,
    /// Stale configuration was torn down before re-applying.
    Reapplied,
    /// Planning found no path (goal is now `Failed`).
    PlanFailed,
    /// The transaction failed and was rolled back (goal stays `Pending`).
    ExecuteFailed,
    /// The transaction committed but the verification probe failed (goal is
    /// now `Degraded`).
    ProbeFailed,
}

/// The event log plus the currently open span stack.
#[derive(Debug, Default)]
pub struct Journal {
    events: Vec<TraceEvent>,
    stack: Vec<u64>,
    next_seq: u64,
}

impl Journal {
    /// Record a leaf event under the currently open span.
    pub fn record(&mut self, at_ns: u64, kind: TraceKind) -> u64 {
        self.next_seq += 1;
        let seq = self.next_seq;
        self.events.push(TraceEvent {
            seq,
            parent: self.stack.last().copied().unwrap_or(0),
            at_ns,
            kind,
        });
        seq
    }

    /// Record an event and open a span under it; subsequent events nest
    /// under this one until [`Journal::exit`].
    pub fn enter(&mut self, at_ns: u64, kind: TraceKind) -> u64 {
        let seq = self.record(at_ns, kind);
        self.stack.push(seq);
        seq
    }

    /// Close the innermost open span (a no-op at top level).
    pub fn exit(&mut self) {
        self.stack.pop();
    }

    /// All events recorded so far, in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Is the journal empty?
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Render the journal as a JSON array of events — the dump format the
    /// post-mortem tooling consumes.  Purely a function of the recorded
    /// events, so identical runs dump identical bytes.
    pub(crate) fn to_json(&self) -> String {
        serde_json::to_string(&self.events).expect("trace events always serialize")
    }

    /// Drop every recorded event and close all open spans.
    pub fn clear(&mut self) {
        self.events.clear();
        self.stack.clear();
        self.next_seq = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_events_link_to_their_parent() {
        let mut j = Journal::new_for_tests();
        let tick = j.enter(100, TraceKind::TickStart { tick: 1, epoch: 0 });
        let probe = j.record(
            100,
            TraceKind::HealthProbe {
                goal: 7,
                sent: 2,
                delivered: 2,
                healthy: true,
            },
        );
        let diag = j.enter(101, TraceKind::DiagnoseStart { goal: 7 });
        let hop = j.record(
            101,
            TraceKind::FrontierHop {
                goal: 7,
                device: 3,
                arrived: 2,
                moved_on: 0,
                dropped: 2,
            },
        );
        j.exit();
        let after = j.record(
            102,
            TraceKind::TickEnd {
                events: 1,
                nm_sent: 0,
                nm_received: 0,
                frames: 4,
            },
        );
        j.exit();

        let by_seq = |s: u64| j.events().iter().find(|e| e.seq == s).unwrap();
        assert_eq!(by_seq(tick).parent, 0);
        assert_eq!(by_seq(probe).parent, tick);
        assert_eq!(by_seq(diag).parent, tick);
        assert_eq!(by_seq(hop).parent, diag);
        assert_eq!(by_seq(after).parent, tick, "span closed back to the tick");
    }

    #[test]
    fn json_roundtrip_preserves_every_event() {
        let mut j = Journal::new_for_tests();
        j.enter(5, TraceKind::RepairStart { epoch: 2, goals: 3 });
        j.record(
            5,
            TraceKind::StageDevice {
                txn: 9,
                device: 4,
                segments: 3,
                ok: true,
            },
        );
        j.record(
            6,
            TraceKind::Diagnosed {
                goal: 1,
                blamed_device: Some(4),
                blamed_link: Some((4, 5)),
                exclusions: 2,
            },
        );
        j.record(
            6,
            TraceKind::Suspect {
                goal: 1,
                target: Blame::Module {
                    device: u64::MAX,
                    module: 3,
                },
                confidence_pct: 85,
            },
        );
        j.record(
            7,
            TraceKind::GoalOutcome {
                goal: 1,
                action: ReconcileAction::Reapplied,
                status: GoalStatus::Active,
            },
        );
        j.exit();
        let dump = j.to_json();
        let back: Vec<TraceEvent> = serde_json::from_str(&dump).unwrap();
        assert_eq!(back, j.events());
    }

    impl Journal {
        fn new_for_tests() -> Self {
            Journal::default()
        }
    }
}

//! Periodic telemetry scheduling.
//!
//! The autonomic control loop runs its health rounds at a fixed period of
//! *simulated* time.  [`TelemetrySchedule`] tracks when the next round is
//! due against the deterministic simulation clock, so the loop — like
//! everything else in the reproduction — replays identically from run to
//! run, over either channel variant.  It is an **event source**:
//! [`take_due`] returns the due instants themselves, which the loop turns
//! into telemetry events on its unified event stream.
//!
//! [`take_due`]: TelemetrySchedule::take_due

use netsim::clock::{SimDuration, SimTime};

/// Tracks when periodic counter polls are due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetrySchedule {
    period: SimDuration,
    next: SimTime,
}

impl TelemetrySchedule {
    /// A schedule firing every `period`, with the first round due
    /// immediately.
    pub fn new(period: SimDuration) -> Self {
        assert!(period.as_nanos() > 0, "telemetry period must be non-zero");
        TelemetrySchedule {
            period,
            next: SimTime::ZERO,
        }
    }

    /// The sampling period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// When the next round is due.
    pub fn next_due(&self) -> SimTime {
        self.next
    }

    /// The due instants at time `now`, advancing the schedule past them:
    /// each returned instant becomes one telemetry event on the control
    /// loop's event stream, so a backlog after a long quiet stretch is
    /// visible as distinct (time stamped) events rather than a bare count.
    pub fn take_due(&mut self, now: SimTime) -> Vec<SimTime> {
        let mut due = Vec::new();
        while self.next <= now {
            due.push(self.next);
            self.next += self.period;
        }
        due
    }

    /// Re-anchor the schedule so the next round is due at `next` (used when
    /// a control loop adopts the schedule mid-run: rounds then land on the
    /// loop's tick boundaries instead of the schedule's original phase).
    pub fn align_to(&mut self, next: SimTime) {
        self.next = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_fire_per_period() {
        let mut s = TelemetrySchedule::new(SimDuration::from_millis(100));
        assert_eq!(s.period(), SimDuration::from_millis(100));
        // First round is due at t = 0.
        assert_eq!(s.take_due(SimTime::ZERO).len(), 1);
        assert_eq!(s.take_due(SimTime::from_millis(50)).len(), 0);
        assert_eq!(s.take_due(SimTime::from_millis(100)).len(), 1);
        // A long gap yields the backlog.
        assert_eq!(s.take_due(SimTime::from_millis(450)).len(), 3);
        assert_eq!(s.next_due(), SimTime::from_millis(500));
    }

    #[test]
    fn take_due_yields_the_due_instants_and_align_rephases() {
        let mut s = TelemetrySchedule::new(SimDuration::from_millis(100));
        assert_eq!(
            s.take_due(SimTime::from_millis(250)),
            vec![
                SimTime::ZERO,
                SimTime::from_millis(100),
                SimTime::from_millis(200)
            ]
        );
        assert!(s.take_due(SimTime::from_millis(250)).is_empty());
        s.align_to(SimTime::from_millis(333));
        assert_eq!(s.next_due(), SimTime::from_millis(333));
        assert_eq!(s.take_due(SimTime::from_millis(333)).len(), 1);
        assert_eq!(s.next_due(), SimTime::from_millis(433));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_period_is_rejected() {
        let _ = TelemetrySchedule::new(SimDuration::ZERO);
    }
}

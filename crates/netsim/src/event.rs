//! Discrete-event scheduler.
//!
//! The network advances by popping the earliest pending frame arrival from a
//! binary heap.  Ties are broken by insertion sequence number so that event
//! ordering is fully deterministic.

use crate::clock::SimTime;
use crate::device::{DeviceId, PortId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// The one kind of event the simulator schedules: a frame finishes arriving
/// at `device` on `port`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FrameArrival {
    /// Receiving device.
    pub(crate) device: DeviceId,
    /// Receiving port on that device.
    pub(crate) port: PortId,
    /// Raw frame bytes (Ethernet frame), shared with the packet trace.
    pub(crate) frame: Arc<[u8]>,
}

#[derive(Debug)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    event: FrameArrival,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then lowest seq)
        // event pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Deterministic event queue, positioned at time zero when created.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
    now: SimTime,
}

impl EventQueue {
    /// Current simulated time (the timestamp of the last popped event).
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` for execution at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to "now": the simulator never moves
    /// backwards.
    pub(crate) fn schedule(&mut self, at: SimTime, event: FrameArrival) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Pop the next event if one exists at or before `horizon`, advancing the
    /// clock to its timestamp.
    pub(crate) fn pop_before(&mut self, horizon: SimTime) -> Option<FrameArrival> {
        if self.heap.peek()?.at > horizon {
            return None;
        }
        let s = self.heap.pop()?;
        self.now = s.at;
        Some(s.event)
    }

    /// Pop the next event regardless of time.
    pub(crate) fn pop(&mut self) -> Option<FrameArrival> {
        self.pop_before(SimTime::MAX)
    }

    /// Advance the clock to `t` (never backwards).  Used when simulated time
    /// must pass even though no events are pending — e.g. a quiet control-loop
    /// tick or the wait for a scheduled fault.
    pub(crate) fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An arrival told apart by its port number.
    fn arrival(token: u32) -> FrameArrival {
        FrameArrival {
            device: DeviceId::from_raw(1),
            port: PortId(token),
            frame: Arc::from(Vec::new()),
        }
    }

    fn drain(q: &mut EventQueue) -> Vec<u32> {
        std::iter::from_fn(|| q.pop()).map(|e| e.port.0).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::default();
        q.schedule(SimTime::from_millis(5), arrival(5));
        q.schedule(SimTime::from_millis(1), arrival(1));
        q.schedule(SimTime::from_millis(3), arrival(3));
        assert_eq!(drain(&mut q), vec![1, 3, 5]);
        assert_eq!(q.now(), SimTime::from_millis(5));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::default();
        for i in 0..10 {
            q.schedule(SimTime::from_millis(7), arrival(i));
        }
        assert_eq!(drain(&mut q), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn horizon_is_respected() {
        let mut q = EventQueue::default();
        q.schedule(SimTime::from_millis(1), arrival(1));
        q.schedule(SimTime::from_millis(10), arrival(10));
        assert!(q.pop_before(SimTime::from_millis(5)).is_some());
        assert!(q.pop_before(SimTime::from_millis(5)).is_none());
        assert_eq!(drain(&mut q), vec![10], "the later event is still pending");
    }

    #[test]
    fn scheduling_in_the_past_is_clamped() {
        let mut q = EventQueue::default();
        q.schedule(SimTime::from_millis(10), arrival(0));
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(10));
        q.schedule(SimTime::from_millis(1), arrival(1));
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(10));
    }
}

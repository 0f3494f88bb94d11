//! Discrete-event scheduler.
//!
//! The network advances by popping the earliest pending event from a binary
//! heap.  Ties are broken by insertion sequence number so that event ordering
//! is fully deterministic.

use crate::clock::SimTime;
use crate::device::{DeviceId, PortId};
use crate::link::LinkId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// An event scheduled for execution at a simulated time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A frame finishes arriving at `device` on `port`.
    FrameArrival {
        /// Receiving device.
        device: DeviceId,
        /// Receiving port on that device.
        port: PortId,
        /// Link the frame travelled over.
        link: LinkId,
        /// Raw frame bytes (Ethernet frame), shared between the endpoints of
        /// a broadcast segment and the packet trace.
        frame: Arc<[u8]>,
    },
    /// A device timer fires (used for ARP retries, periodic self-tests, ...).
    Timer {
        /// Device whose timer fires.
        device: DeviceId,
        /// Opaque timer identifier interpreted by the device.
        token: u64,
    },
}

#[derive(Debug)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    event: Event,
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

/// Deterministic event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
    now: SimTime,
    processed: u64,
}

impl EventQueue {
    /// Create an empty queue positioned at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Schedule `event` for execution at absolute time `at`.
    ///
    /// Scheduling in the past is clamped to "now": the simulator never moves
    /// backwards.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Pop the next event if one exists at or before `horizon`, advancing the
    /// clock to its timestamp.
    pub fn pop_before(&mut self, horizon: SimTime) -> Option<(SimTime, Event)> {
        if let Some(top) = self.heap.peek() {
            if top.at > horizon {
                return None;
            }
        }
        let s = self.heap.pop()?;
        self.now = s.at;
        self.processed += 1;
        Some((s.at, s.event))
    }

    /// Pop the next event regardless of time.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.pop_before(SimTime::MAX)
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// Advance the clock to `t` (never backwards).  Used when simulated time
    /// must pass even though no events are pending — e.g. between telemetry
    /// sampling rounds or while waiting for a scheduled fault.
    pub fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimTime;

    fn timer(dev: u64, token: u64) -> Event {
        Event::Timer {
            device: DeviceId::from_raw(dev),
            token,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), timer(1, 5));
        q.schedule(SimTime::from_millis(1), timer(1, 1));
        q.schedule(SimTime::from_millis(3), timer(1, 3));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 3, 5]);
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(SimTime::from_millis(7), timer(1, i));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn horizon_is_respected() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(1), timer(1, 1));
        q.schedule(SimTime::from_millis(10), timer(1, 10));
        assert!(q.pop_before(SimTime::from_millis(5)).is_some());
        assert!(q.pop_before(SimTime::from_millis(5)).is_none());
        assert_eq!(q.pending(), 1);
    }

    #[test]
    fn scheduling_in_the_past_is_clamped() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(10), timer(1, 0));
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(10));
        q.schedule(SimTime::from_millis(1), timer(1, 1));
        let (at, _) = q.pop().unwrap();
        assert_eq!(at, SimTime::from_millis(10));
    }
}

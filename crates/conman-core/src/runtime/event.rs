//! The NM's unified event stream.
//!
//! Everything that can make the autonomic control loop act is an
//! [`NmEvent`] on one deterministic queue: telemetry rounds falling due on
//! the simulated clock, push-mode counter reports from device agents,
//! module notifications, and operator intent changes (submit / withdraw).
//! The loop drains the queue once per tick, in arrival order — there is no
//! other control path, which is what makes a run replayable tick for tick.

use crate::nm::{ConnectivityGoal, GoalId};
use crate::primitives::Notification;
use netsim::clock::SimTime;
use netsim::device::DeviceId;
use netsim::network::Network;
use netsim::stats::FlowCounters;
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// The data-plane endpoints the loop probes a goal between: the customer
/// host that originates test traffic and the host (and address) that must
/// receive it.  Both sit *outside* the managed network — per-goal health is
/// judged the way the customer experiences it, from delivered traffic, not
/// from management state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GoalEndpoints {
    /// Host that originates the goal's probe traffic.
    pub src: DeviceId,
    /// Host that must receive it.
    pub dst: DeviceId,
    /// Destination address the probes are sent to.
    pub dst_ip: Ipv4Addr,
}

/// Event budget for driving one probe (and its encapsulation chain) to
/// quiescence.
const PROBE_EVENT_BUDGET: u64 = 100_000;

impl GoalEndpoints {
    /// One end-to-end probe: `src` sends a UDP datagram carrying `payload`
    /// to `dst_ip`, the network runs to quiescence, and the verdict is
    /// whether `dst` received that payload.  Drains `dst`'s delivered
    /// buffer, so repeated probing never grows it; callers that attribute
    /// the traffic to a goal open the flow window around the call.
    pub fn probe(&self, net: &mut Network, payload: &[u8]) -> bool {
        if net
            .send_udp(self.src, self.dst_ip, 40000, 7000, payload)
            .is_err()
        {
            return false;
        }
        net.run_to_quiescence(PROBE_EVENT_BUDGET);
        net.device_mut(self.dst)
            .is_ok_and(|d| d.take_delivered().iter().any(|p| p.payload == payload))
    }
}

/// One event on the NM's unified stream.
#[derive(Debug, Clone)]
pub enum NmEvent {
    /// A telemetry round fell due at `at` (from
    /// [`TelemetrySchedule::take_due`](mgmt_channel::TelemetrySchedule::take_due)).
    /// The loop's health/diagnose/repair machinery only runs on ticks that
    /// carry at least one of these.
    TelemetryDue {
        /// The instant the round was scheduled for.
        at: SimTime,
    },
    /// A device pushed an unsolicited flow report (`SubscribeFlows`
    /// subscription): the listed tags' counters moved since the last
    /// report.
    CounterDelta {
        /// The reporting device.
        device: DeviceId,
        /// `(flow tag, new cumulative counters)` per changed tag.
        flows: Vec<(u64, FlowCounters)>,
    },
    /// A module raised a notification through its agent.
    AgentNotification(Notification),
    /// Operator intent: declare a goal (applied by the next tick's
    /// reconcile, with per-goal probing if endpoints are known).
    Submit {
        /// The desired connectivity.
        goal: Box<ConnectivityGoal>,
        /// Probe endpoints, when the operator can name them.
        endpoints: Option<GoalEndpoints>,
    },
    /// Operator intent: withdraw a goal.  Withdrawals in one tick coalesce
    /// into a single batched teardown, and a withdrawal always wins over an
    /// in-flight repair — the goal is simply gone.
    Withdraw(GoalId),
}

/// A FIFO of [`NmEvent`]s.  Deterministic: events are processed strictly in
/// arrival order, once per loop tick.
#[derive(Debug, Default)]
pub struct EventQueue {
    queue: VecDeque<NmEvent>,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event.
    pub fn push(&mut self, event: NmEvent) {
        self.queue.push_back(event);
    }

    /// Drain every queued event, in arrival order.
    pub fn drain(&mut self) -> Vec<NmEvent> {
        self.queue.drain(..).collect()
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_drain_in_arrival_order() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(NmEvent::TelemetryDue { at: SimTime::ZERO });
        q.push(NmEvent::Withdraw(GoalId(4)));
        assert_eq!(q.len(), 2);
        let drained = q.drain();
        assert!(matches!(drained[0], NmEvent::TelemetryDue { .. }));
        assert!(matches!(drained[1], NmEvent::Withdraw(GoalId(4))));
        assert!(q.is_empty());
    }
}

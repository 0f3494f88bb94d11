//! Operator intent queued for the control loop, and the goal probe.
//!
//! An [`NmEvent`] is a change of operator intent — submit or withdraw — that
//! the loop applies at the start of its next tick, in arrival order.
//! Everything else a tick does (health, diagnose, repair) it decides from
//! the goal store and its own probes, which is what makes a run replayable
//! tick for tick.  [`GoalEndpoints::probe`] is the one end-to-end probe
//! behind health rounds, repair verification and diagnosis.

use crate::nm::{ConnectivityGoal, GoalId};
use netsim::device::DeviceId;
use netsim::network::Network;
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

/// One pending change of operator intent.
#[derive(Debug, Clone)]
pub enum NmEvent {
    /// Declare a goal (applied by the next tick's reconcile, with per-goal
    /// probing if endpoints are known).
    Submit {
        /// The desired connectivity.
        goal: Box<ConnectivityGoal>,
        /// Probe endpoints, when the operator can name them.
        endpoints: Option<GoalEndpoints>,
    },
    /// Withdraw a goal.  Withdrawals in one tick coalesce into a single
    /// batched teardown, and a withdrawal always wins over an in-flight
    /// repair — the goal is simply gone.
    Withdraw(GoalId),
}

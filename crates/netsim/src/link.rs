//! Physical links.
//!
//! CONMan models real network links as *physical pipes* which the NM can
//! discover and enable but not create (§II-C.1).  Every link is a
//! point-to-point cable between two ports.

use crate::clock::SimDuration;
use crate::device::{DeviceId, PortId};
use serde::{Deserialize, Serialize};

/// Identifier of a link within a [`crate::network::Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkId(pub u32);

/// Performance characteristics of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkProperties {
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Bandwidth in bits per second (0 means "infinite": no serialization
    /// delay is modelled).
    pub bandwidth_bps: u64,
    /// Packet loss probability in parts per million (deterministic losses
    /// are injected by the fault-injection tests, not sampled here).
    pub loss_ppm: u32,
    /// Administrative state; frames on a disabled link are dropped.
    pub enabled: bool,
}

impl Default for LinkProperties {
    fn default() -> Self {
        LinkProperties {
            latency: SimDuration::from_micros(50),
            bandwidth_bps: 1_000_000_000,
            loss_ppm: 0,
            enabled: true,
        }
    }
}

impl LinkProperties {
    /// A LAN-like link: 1 Gbps, 50 microseconds.
    pub fn lan() -> Self {
        Self::default()
    }

    /// A WAN-like link: 100 Mbps, 5 ms.
    pub(crate) fn wan() -> Self {
        LinkProperties {
            latency: SimDuration::from_millis(5),
            bandwidth_bps: 100_000_000,
            ..Self::default()
        }
    }
}

/// One attachment point of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Endpoint {
    /// Attached device.
    pub device: DeviceId,
    /// Attached port on that device.
    pub port: PortId,
}

/// A physical link: a point-to-point cable between two endpoints.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Link {
    /// Link identifier.
    pub id: LinkId,
    /// The two attached endpoints.
    pub endpoints: [Endpoint; 2],
    /// Performance properties.
    pub properties: LinkProperties,
}

impl Link {
    /// The endpoint at the other end from `from` (the receiver of a
    /// transmission), if `from` is attached to this link.
    pub(crate) fn peer_of(&self, from: Endpoint) -> Option<Endpoint> {
        let [a, b] = self.endpoints;
        if from == a {
            Some(b)
        } else if from == b {
            Some(a)
        } else {
            None
        }
    }

    /// Time for `bytes` to fully arrive at the far end.
    pub(crate) fn transfer_time(&self, bytes: usize) -> SimDuration {
        self.properties.latency + SimDuration::serialization(bytes, self.properties.bandwidth_bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceId;

    fn ep(d: u64, p: u32) -> Endpoint {
        Endpoint {
            device: DeviceId::from_raw(d),
            port: PortId(p),
        }
    }

    fn link(properties: LinkProperties) -> Link {
        Link {
            id: LinkId(0),
            endpoints: [ep(1, 0), ep(2, 1)],
            properties,
        }
    }

    #[test]
    fn each_endpoint_is_the_others_peer() {
        let l = link(LinkProperties::lan());
        assert_eq!(l.peer_of(ep(1, 0)), Some(ep(2, 1)));
        assert_eq!(l.peer_of(ep(2, 1)), Some(ep(1, 0)));
        assert_eq!(l.peer_of(ep(3, 0)), None);
    }

    #[test]
    fn transfer_time_includes_serialization() {
        let t = link(LinkProperties::lan()).transfer_time(1500);
        assert_eq!(t, SimDuration::from_micros(50 + 12));
        assert!(link(LinkProperties::wan()).transfer_time(1500) > t);
    }
}

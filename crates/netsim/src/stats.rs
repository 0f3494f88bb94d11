//! Per-device and per-port packet counters.
//!
//! The paper's GRE module advertises only "number of received and transmitted
//! packets on each up and down pipe" as its performance reporting (Table III,
//! row x); these counters are the substrate for that reporting.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Counters for one port or one logical interface (tunnel).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IfaceCounters {
    /// Frames/packets received.
    pub rx_packets: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Frames/packets transmitted.
    pub tx_packets: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
    /// Packets dropped (filter, TTL, no route, bad checksum...).
    pub drops: u64,
}

impl IfaceCounters {
    /// Record a reception.
    pub fn rx(&mut self, bytes: usize) {
        self.rx_packets += 1;
        self.rx_bytes += bytes as u64;
    }

    /// Record a transmission.
    pub fn tx(&mut self, bytes: usize) {
        self.tx_packets += 1;
        self.tx_bytes += bytes as u64;
    }

    /// Record a drop.
    pub(crate) fn drop_packet(&mut self) {
        self.drops += 1;
    }
}

/// Why a packet was dropped; used by debugging tests and the CONMan
/// self-test reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DropReason {
    /// No route to the destination.
    NoRoute,
    /// TTL expired in transit.
    TtlExpired,
    /// A filter rule dropped the packet.
    Filtered,
    /// Header failed to parse or checksum failed.
    Malformed,
    /// GRE key or sequencing expectation not met.
    TunnelMismatch,
    /// No MPLS cross-connect for the incoming label.
    NoLabel,
    /// Destination MAC is not ours and the device does not forward at L2.
    NotForUs,
    /// Port is down or not attached to a link.
    PortDown,
    /// Forwarding is disabled on this device.
    ForwardingDisabled,
    /// Frame exceeded the egress MTU.
    MtuExceeded,
}

/// Per-flow counters: the slice of a device's activity attributed to one
/// tagged traffic flow (in the CONMan layers above, the flow tag is the
/// owning goal's id).
///
/// Flow attribution is window-based: while a tagged window is open the
/// network samples a device's tallies just before it first hands that device
/// a frame, and accumulates the deltas of the devices so touched here when
/// the window closes (see `Network::begin_flow_window`).  Because the
/// simulator is single-threaded and probe bursts run to quiescence, a window
/// contains exactly the tagged flow's traffic, so counter-delta localisation
/// is not confounded when several goals are active.  `Network::forget_flow`
/// drops a tag's entries once its owner is gone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowCounters {
    /// Packets this device originated during the flow's windows.
    pub originated: u64,
    /// Packets forwarded through the device for the flow.
    pub forwarded: u64,
    /// Packets delivered to a local sink for the flow.
    pub local_delivered: u64,
    /// Packets dropped (all reasons) during the flow's windows.
    pub drops: u64,
}

impl FlowCounters {
    /// Accumulate another sample into this one.
    pub fn absorb(&mut self, other: &FlowCounters) {
        self.originated += other.originated;
        self.forwarded += other.forwarded;
        self.local_delivered += other.local_delivered;
        self.drops += other.drops;
    }

    /// Did the flow touch this device at all?
    pub fn is_empty(&self) -> bool {
        self.originated == 0 && self.forwarded == 0 && self.local_delivered == 0 && self.drops == 0
    }
}

/// What a device's per-packet lookups have done since it was built: the
/// entries each of [`DeviceConfig::is_local_address`]'s tunnel half,
/// [`Rib::lookup`]'s rule walk and the route tables' longest-prefix match
/// examined.  Counts of work, not of time: a seeded run repeats them
/// exactly, and the sum over one quiet tick is the deterministic twin of
/// the benchmark's per-tick wall time.
///
/// [`DeviceConfig::is_local_address`]: crate::config::DeviceConfig::is_local_address
/// [`Rib::lookup`]: crate::route::Rib::lookup
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LookupWork {
    /// Tunnel interface addresses compared with a packet's destination.
    pub tunnel_address_probes: u64,
    /// Policy rules whose selector was evaluated.
    pub rule_candidates: u64,
    /// Routes compared with a destination.
    pub routes_examined: u64,
}

impl LookupWork {
    /// Accumulate another device's work into this one.
    pub(crate) fn absorb(&mut self, other: &LookupWork) {
        self.tunnel_address_probes += other.tunnel_address_probes;
        self.rule_candidates += other.rule_candidates;
        self.routes_examined += other.routes_examined;
    }

    /// All three counts together.
    pub fn total(&self) -> u64 {
        self.tunnel_address_probes + self.rule_candidates + self.routes_examined
    }
}

/// Aggregated statistics of one device.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DeviceStats {
    /// Counters per physical port index.
    pub ports: BTreeMap<u32, IfaceCounters>,
    /// Packets delivered to a local sink (applications, self-tests).
    pub local_delivered: u64,
    /// Packets this device originated.
    pub originated: u64,
    /// Packets forwarded through the device.
    pub forwarded: u64,
    /// Drop counts by reason.
    pub drops: BTreeMap<DropReason, u64>,
    /// Per-flow attribution, keyed by flow tag (a goal id in the management
    /// layers).  Filled by the network's flow windows, emptied per tag by
    /// `Network::forget_flow`.
    pub flows: BTreeMap<u64, FlowCounters>,
}

impl DeviceStats {
    /// Counters for a port, creating them on first use.
    pub fn port(&mut self, port: u32) -> &mut IfaceCounters {
        self.ports.entry(port).or_default()
    }

    /// Record a drop with its reason.
    pub(crate) fn record_drop(&mut self, reason: DropReason) {
        *self.drops.entry(reason).or_insert(0) += 1;
    }

    /// Total number of drops across all reasons.
    pub fn total_drops(&self) -> u64 {
        self.drops.values().sum()
    }

    /// The counters attributed to one flow tag (zero counters if the flow
    /// never touched this device).
    pub fn flow(&self, tag: u64) -> FlowCounters {
        self.flows.get(&tag).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = DeviceStats::default();
        s.port(0).rx(100);
        s.port(0).rx(200);
        s.port(1).tx(50);
        s.record_drop(DropReason::NoRoute);
        s.record_drop(DropReason::NoRoute);
        s.record_drop(DropReason::Filtered);
        assert_eq!(s.ports[&0].rx_packets, 2);
        assert_eq!(s.ports[&0].rx_bytes, 300);
        assert_eq!(s.ports[&1].tx_packets, 1);
        assert_eq!(s.drops[&DropReason::NoRoute], 2);
        assert_eq!(s.total_drops(), 3);
    }
}

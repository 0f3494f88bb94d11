//! The in-band, self-bootstrapping management channel.
//!
//! Management messages are wrapped in raw Ethernet frames with the
//! experimental EtherType 0x88B5 and flooded hop by hop: every device that
//! receives a management frame it has not seen before re-emits it on all its
//! other ports, and additionally delivers it locally if it is the
//! destination.  No addresses, routes or spanning trees need to be configured
//! beforehand — this is the 4D-style discovery/dissemination plane the paper
//! built with `SOCK_PACKET` sockets (§III-A).

use crate::counters::{ChannelCounters, CounterBoard};
use crate::message::MgmtMessage;
use crate::ManagementChannel;
use conman_obs::{MessageDirection, Recorder};
use netsim::clock::SimDuration;
use netsim::device::{DeviceId, PortId};
use netsim::ether::{EtherType, EthernetFrame};
use netsim::mac::MacAddr;
use netsim::network::Network;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet, VecDeque};

/// Hop budget for flooded frames, bounding loops on redundant topologies.
const DEFAULT_TTL: u8 = 32;

/// The flooded wire format: a management message plus flooding metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FloodFrame {
    /// Device that originated the flood.
    origin: DeviceId,
    /// Origin-assigned identifier used for duplicate suppression.
    flood_id: u64,
    /// Remaining hop budget.
    ttl: u8,
    /// The management message being carried.
    msg: MgmtMessage,
}

/// Flooding in-band management channel.
#[derive(Debug, Default)]
pub struct InBandChannel {
    mailboxes: BTreeMap<DeviceId, VecDeque<MgmtMessage>>,
    /// (origin, flood_id) pairs each device has already processed.
    seen: BTreeMap<DeviceId, HashSet<(DeviceId, u64)>>,
    counters: CounterBoard,
    next_flood_id: u64,
    /// Total frames placed on links by the flooding protocol (a measure of
    /// the overhead of not having any configuration, reported by the channel
    /// benchmarks).
    pub frames_flooded: u64,
    /// Flight-recorder message tap (disabled by default).
    recorder: Recorder,
}

impl InBandChannel {
    /// Create an empty channel.
    pub fn new() -> Self {
        Self::default()
    }

    fn encode(frame: &FloodFrame) -> Vec<u8> {
        serde_json::to_vec(frame).expect("flood frames always serialize")
    }

    fn decode(bytes: &[u8]) -> Option<FloodFrame> {
        serde_json::from_slice(bytes).ok()
    }

    /// Emit `frame` out of every usable port of `device` except `skip`.
    fn flood_from(
        &mut self,
        net: &mut Network,
        device: DeviceId,
        skip: Option<PortId>,
        frame: &FloodFrame,
    ) {
        let payload = Self::encode(frame);
        let ports: Vec<PortId> = match net.device(device) {
            Ok(d) => d
                .ports
                .iter()
                .filter(|nic| nic.is_usable())
                .map(|nic| PortId(nic.index))
                .filter(|p| Some(*p) != skip)
                .collect(),
            Err(_) => return,
        };
        for port in ports {
            let src_mac = net
                .device(device)
                .map(|d| d.port_mac(port))
                .unwrap_or(MacAddr::ZERO);
            let eth = EthernetFrame::new(
                MacAddr::BROADCAST,
                src_mac,
                EtherType::Management,
                payload.clone(),
            );
            let _ = net.send_raw_frame(device, port, &eth);
            self.frames_flooded += 1;
            self.recorder.inc("inband.frames_flooded", 1);
        }
    }

    /// Process management frames queued at every device, re-flooding and
    /// delivering as needed.  Returns `true` if any frame was processed.
    fn pump(&mut self, net: &mut Network) -> bool {
        let mut progressed = false;
        let device_ids = net.device_ids();
        for id in device_ids {
            let frames = match net.device_mut(id) {
                Ok(d) => d.take_mgmt_frames(),
                Err(_) => continue,
            };
            for f in frames {
                progressed = true;
                let Some(mut flood) = Self::decode(&f.payload) else {
                    continue;
                };
                let seen = self.seen.entry(id).or_default();
                if !seen.insert((flood.origin, flood.flood_id)) {
                    continue; // duplicate
                }
                if flood.msg.to == id {
                    self.counters
                        .record_received(id, flood.msg.category, flood.msg.payload_len());
                    self.recorder.on_message(
                        MessageDirection::Received,
                        flood.msg.category.name(),
                        flood.msg.payload_len(),
                    );
                    self.mailboxes
                        .entry(id)
                        .or_default()
                        .push_back(flood.msg.clone());
                    continue;
                }
                if flood.ttl == 0 {
                    continue;
                }
                flood.ttl -= 1;
                self.flood_from(net, id, f.port, &flood);
            }
        }
        progressed
    }
}

impl ManagementChannel for InBandChannel {
    fn send(&mut self, net: &mut Network, mut msg: MgmtMessage) {
        self.next_flood_id += 1;
        msg.seq = self.next_flood_id;
        self.counters
            .record_sent(msg.from, msg.category, msg.payload_len());
        self.recorder.on_message(
            MessageDirection::Sent,
            msg.category.name(),
            msg.payload_len(),
        );
        let origin = msg.from;
        // Local delivery without touching the wire when a device messages
        // itself (the NM talking to modules on its own host).
        if msg.to == origin {
            self.counters
                .record_received(origin, msg.category, msg.payload_len());
            self.recorder.on_message(
                MessageDirection::Received,
                msg.category.name(),
                msg.payload_len(),
            );
            self.mailboxes.entry(origin).or_default().push_back(msg);
            return;
        }
        let flood = FloodFrame {
            origin,
            flood_id: self.next_flood_id,
            ttl: DEFAULT_TTL,
            msg,
        };
        self.seen
            .entry(origin)
            .or_default()
            .insert((origin, flood.flood_id));
        self.flood_from(net, origin, None, &flood);
    }

    fn run(&mut self, net: &mut Network) {
        // Alternate between letting frames propagate over links and
        // processing what arrived, until the flood dies out.
        loop {
            net.run_for(SimDuration::from_millis(10));
            let progressed = self.pump(net);
            if !progressed && net.run_for(SimDuration::from_millis(10)) == 0 {
                break;
            }
        }
    }

    fn recv(&mut self, net: &mut Network, device: DeviceId) -> Vec<MgmtMessage> {
        self.run(net);
        self.mailboxes
            .get_mut(&device)
            .map(|q| q.drain(..).collect())
            .unwrap_or_default()
    }

    fn counters(&self, device: DeviceId) -> ChannelCounters {
        self.counters.get(device)
    }

    fn reset_counters(&mut self) {
        self.counters.reset();
    }

    fn variant(&self) -> &'static str {
        "in-band-flooding"
    }

    fn attach_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageCategory;
    use netsim::device::{Device, DeviceRole};
    use netsim::link::LinkProperties;
    use netsim::topology;
    use netsim::trace::Layer;

    /// Build a small ring so flooding has redundant paths (duplicates must
    /// be suppressed and the flood must still terminate).
    fn ring(n: usize) -> (Network, Vec<DeviceId>) {
        let mut net = Network::new();
        let ids: Vec<DeviceId> = (0..n)
            .map(|i| net.add_device(Device::new(format!("d{i}"), DeviceRole::Router, 2)))
            .collect();
        for i in 0..n {
            let j = (i + 1) % n;
            net.connect(
                (ids[i], PortId(0)),
                (ids[j], PortId(1)),
                LinkProperties::lan(),
            )
            .unwrap();
        }
        (net, ids)
    }

    #[test]
    fn flooding_works_on_rings_without_looping_forever() {
        let (mut net, ids) = ring(6);
        let mut ch = InBandChannel::new();
        ch.send(
            &mut net,
            MgmtMessage::new(ids[0], ids[3], MessageCategory::Command, b"hello".to_vec()),
        );
        let got = ch.recv(&mut net, ids[3]);
        assert_eq!(got.len(), 1);
        // The flood terminates: total frames is finite and bounded by
        // (devices * ports).
        assert!(ch.frames_flooded <= 24);
        // Duplicate suppression: the destination got the message exactly once.
        assert_eq!(ch.counters(ids[3]).received, 1);
    }

    #[test]
    fn no_preconfiguration_needed_on_the_vpn_testbed() {
        // The Figure 4 testbed has no routes for the management traffic at
        // all; the in-band channel still reaches every device from the NM
        // host (Router B, the core router, hosts the NM in our experiments).
        let mut t = topology::figure4();
        let mut ch = InBandChannel::new();
        let nm_host = t.core[1];
        for target in [t.core[0], t.core[2], t.customer1, t.customer2] {
            ch.send(
                net_ref(&mut t),
                MgmtMessage::new(
                    nm_host,
                    target,
                    MessageCategory::Command,
                    b"showPotential".to_vec(),
                ),
            );
        }
        for target in [t.core[0], t.core[2], t.customer1, t.customer2] {
            let got = ch.recv(&mut t.net, target);
            assert_eq!(got.len(), 1, "device should receive exactly one command");
        }
        // The data plane was not needed nor touched: the flood put nothing
        // but management frames on the wire — not one ARP request.
        let mgmt = [Layer::Ethernet, Layer::Management];
        assert!(t.net.trace().iter().all(|e| e.packet().layers == mgmt));
    }

    fn net_ref(t: &mut topology::ChainTopology) -> &mut Network {
        &mut t.net
    }

    #[test]
    fn self_addressed_messages_short_circuit() {
        let (mut net, ids) = ring(3);
        let mut ch = InBandChannel::new();
        ch.send(
            &mut net,
            MgmtMessage::new(ids[0], ids[0], MessageCategory::Notification, vec![1]),
        );
        assert_eq!(ch.frames_flooded, 0);
        assert_eq!(ch.recv(&mut net, ids[0]).len(), 1);
    }
}

//! The in-band, self-bootstrapping management channel.
//!
//! Management messages are wrapped in raw Ethernet frames with the
//! experimental EtherType 0x88B5 and flooded hop by hop: every device that
//! receives a management frame it has not seen before re-emits it on all its
//! other ports, and additionally delivers it locally if it is the
//! destination.  No addresses, routes or spanning trees need to be configured
//! beforehand — this is the 4D-style discovery/dissemination plane the paper
//! built with `SOCK_PACKET` sockets (§III-A).
//!
//! **The flood frame** is built from [`crate::codec`] and says each fact
//! once: a TTL byte · origin (8 raw bytes) · destination (8 raw bytes) ·
//! flood id (varint, from one counter of the channel) · category byte (its
//! place in [`MessageCategory`]) · the payload, the rest of the frame.  A
//! transit device forwards the bytes it received with only the TTL byte
//! lowered; only the destination builds a [`MgmtMessage`].  A frame cut
//! short, a non-minimal flood id or an unknown category is dropped and
//! counted.
//!
//! **`run` moves every flood; `recv` only drains.**  `run` returns only
//! when no management frame is in flight on any link
//! ([`Network::management_frames_in_flight`]) and two 10 ms steps have
//! passed with no arrival since the last frame was sent or forwarded.  Then
//! every flood sent before `run` returned has been delivered, suppressed or
//! expired everywhere, however long its frames take to cross their links:
//! a message sent before a `run` is in its destination's mailbox when the
//! `run` returns, and `recv` hands the mailbox over without stepping the
//! network.  So `run` ends by recording the last flood id as a floor and
//! forgetting which floods each device has seen.  A frame at or below the
//! floor that arrives anyway (a replay, or a copy injected by a neighbour
//! that is not this channel) is a straggler: dropped and counted, never
//! delivered twice.

use crate::codec::{Reader, Writer};
use crate::message::{MessageCategory, MgmtMessage};
use crate::ManagementChannel;
use conman_obs::Recorder;
use netsim::clock::SimDuration;
use netsim::device::{DeviceId, PortId};
use netsim::ether::{EtherType, EthernetFrame};
use netsim::mac::MacAddr;
use netsim::network::Network;
use std::collections::{BTreeMap, HashSet, VecDeque};

/// Hop budget for flooded frames, bounding loops on redundant topologies.
const DEFAULT_TTL: u8 = 32;

/// The flood frame of `msg`, with a full hop budget.
fn flood_frame(msg: &MgmtMessage, flood_id: u64) -> Vec<u8> {
    let mut w = Writer::default();
    w.put_u8(DEFAULT_TTL);
    w.put_raw(&msg.from.as_u64().to_le_bytes());
    w.put_raw(&msg.to.as_u64().to_le_bytes());
    w.put_u64(flood_id);
    w.put_u8(msg.category as u8);
    w.put_raw(&msg.payload);
    w.finish()
}

/// The origin, destination, flood id and category a flood frame names, and
/// where its payload starts; `None` when the header does not decode.
fn read_header(frame: &[u8]) -> Option<(DeviceId, DeviceId, u64, MessageCategory, usize)> {
    let mut r = Reader::new(frame);
    let _ttl = r.u8()?;
    let from = DeviceId::from_raw(u64::from_le_bytes(r.raw()?));
    let to = DeviceId::from_raw(u64::from_le_bytes(r.raw()?));
    let (flood_id, category) = (r.u64()?, MessageCategory::from_byte(r.u8()?)?);
    Some((from, to, flood_id, category, frame.len() - r.remaining()))
}

/// Flooding in-band management channel.  Each public counter is also the
/// recorder metric `inband.<name>`.
#[derive(Debug, Default)]
pub struct InBandChannel {
    mailboxes: BTreeMap<DeviceId, VecDeque<MgmtMessage>>,
    /// (device, flood id) for each flood a device processed since `run`
    /// last returned.
    seen: HashSet<(DeviceId, u64)>,
    next_flood_id: u64,
    /// The last flood id when `run` last returned.
    floor: u64,
    /// Frames placed on links by the flooding protocol (a measure of the
    /// overhead of not having any configuration).
    pub frames_flooded: u64,
    /// Their bytes, Ethernet header included (no port counter sees them).
    pub bytes_flooded: u64,
    /// Frames dropped at a device that had processed their flood already.
    pub duplicates_suppressed: u64,
    /// Frames dropped at a transit device with no hop left.
    pub ttl_expired: u64,
    /// Frames whose header did not decode.
    pub decode_dropped: u64,
    /// Frames of a flood that had died out before `run` last returned.
    pub stragglers_dropped: u64,
    /// Flight recorder for the `inband.*` metrics (disabled by default).
    recorder: Recorder,
}

impl InBandChannel {
    /// Create an empty channel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Emit `frame` out of every usable port of `device` except `skip`.
    fn flood_from(
        &mut self,
        net: &mut Network,
        device: DeviceId,
        skip: Option<PortId>,
        frame: Vec<u8>,
    ) {
        let Ok(d) = net.device(device) else { return };
        let ports: Vec<(PortId, MacAddr)> = (d.ports.iter())
            .filter(|nic| nic.is_usable() && Some(PortId(nic.index)) != skip)
            .map(|nic| (PortId(nic.index), nic.mac))
            .collect();
        let bytes = 14 + frame.len() as u64; // and the Ethernet header
        let mut eth = EthernetFrame::new(
            MacAddr::BROADCAST,
            MacAddr::ZERO,
            EtherType::Management,
            frame,
        );
        for (port, mac) in ports {
            eth.src = mac;
            let _ = net.send_raw_frame(device, port, &eth);
            self.frames_flooded += 1;
            self.bytes_flooded += bytes;
            self.recorder.inc("inband.frames_flooded", 1);
            self.recorder.inc("inband.bytes_flooded", bytes);
        }
    }

    /// Queue `msg` for its destination.
    fn deliver(&mut self, msg: MgmtMessage) {
        self.mailboxes.entry(msg.to).or_default().push_back(msg);
    }

    /// Process management frames queued at every device, re-flooding and
    /// delivering as needed.  Returns `true` if any frame was processed.
    fn pump(&mut self, net: &mut Network) -> bool {
        let mut progressed = false;
        for id in net.device_ids() {
            let frames = match net.device_mut(id) {
                Ok(d) => d.take_mgmt_frames(),
                Err(_) => continue,
            };
            for f in frames {
                progressed = true;
                self.receive(net, id, f.port, f.payload);
            }
        }
        progressed
    }

    /// Device `id` takes in `frame`, which arrived on `port`: it delivers
    /// the frame, passes it on, or drops it and counts why.
    fn receive(
        &mut self,
        net: &mut Network,
        id: DeviceId,
        port: Option<PortId>,
        mut frame: Vec<u8>,
    ) {
        let (dropped, metric) = match read_header(&frame) {
            None => (&mut self.decode_dropped, "inband.decode_dropped"),
            Some((_, _, flood, ..)) if flood <= self.floor => {
                (&mut self.stragglers_dropped, "inband.stragglers_dropped")
            }
            Some((_, _, flood, ..)) if !self.seen.insert((id, flood)) => (
                &mut self.duplicates_suppressed,
                "inband.duplicates_suppressed",
            ),
            Some((from, to, _, category, len)) if to == id => {
                frame.drain(..len);
                return self.deliver(MgmtMessage::new(from, to, category, frame));
            }
            Some(_) if frame[0] == 0 => (&mut self.ttl_expired, "inband.ttl_expired"),
            Some(_) => {
                frame[0] -= 1;
                return self.flood_from(net, id, port, frame);
            }
        };
        *dropped += 1;
        self.recorder.inc(metric, 1);
    }
}

impl ManagementChannel for InBandChannel {
    fn send(&mut self, net: &mut Network, msg: MgmtMessage) {
        // Local delivery without touching the wire when a device messages
        // itself (the NM talking to modules on its own host).
        if msg.to == msg.from {
            return self.deliver(msg);
        }
        self.next_flood_id += 1;
        self.seen.insert((msg.from, self.next_flood_id));
        let frame = flood_frame(&msg, self.next_flood_id);
        self.flood_from(net, msg.from, None, frame);
    }

    fn run(&mut self, net: &mut Network) {
        // Alternate between letting frames propagate over links and
        // processing what arrived, until a step passes with no arrival and
        // no management frame is still on a link.
        loop {
            net.run_for(SimDuration::from_millis(10));
            let progressed = self.pump(net);
            if !progressed
                && net.run_for(SimDuration::from_millis(10)) == 0
                && net.management_frames_in_flight() == 0
            {
                break;
            }
        }
        // Every flood so far has died out (see the module doc).
        self.floor = self.next_flood_id;
        self.seen.clear();
    }

    fn recv(&mut self, _net: &mut Network, device: DeviceId) -> Vec<MgmtMessage> {
        self.mailboxes
            .get_mut(&device)
            .map(|q| q.drain(..).collect())
            .unwrap_or_default()
    }

    fn attach_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        ch.run(&mut net);
        let got = ch.recv(&mut net, ids[3]);
        assert_eq!(got.len(), 1);
        // The flood terminates: total frames is finite and bounded by
        // (devices * ports).
        assert!(ch.frames_flooded <= 24);
        // Duplicate suppression: the destination got the message exactly
        // once, and no other device got it at all.
        assert!(ch.duplicates_suppressed > 0, "the ring closes on itself");
        for &id in &ids {
            assert!(ch.recv(&mut net, id).is_empty(), "{id:?}");
        }
        // Each copy is the Ethernet header, the 19-byte flood header (TTL,
        // two devices, a one-byte flood id, the category) and the payload.
        assert_eq!(ch.bytes_flooded, ch.frames_flooded * (14 + 19 + 5));
    }

    /// Send `payload` from `device`'s port 0 as a management frame, as a
    /// neighbour that is not this channel would.
    fn inject(net: &mut Network, device: DeviceId, payload: Vec<u8>) {
        let eth = EthernetFrame::new(
            MacAddr::BROADCAST,
            MacAddr::ZERO,
            EtherType::Management,
            payload,
        );
        net.send_raw_frame(device, PortId(0), &eth).unwrap();
    }

    #[test]
    fn a_frame_that_does_not_decode_is_counted_not_delivered() {
        let (mut net, ids) = ring(4);
        let mut ch = InBandChannel::new();
        let msg = MgmtMessage::new(ids[0], ids[2], MessageCategory::Command, b"x".to_vec());
        let good = flood_frame(&msg, 1);
        let mut unknown_category = good.clone();
        unknown_category[18] = MessageCategory::Telemetry as u8 + 1;
        let mut padded_id = good.clone();
        padded_id.splice(17..18, [0x81, 0x00]);
        for junk in [vec![], good[..18].to_vec(), unknown_category, padded_id] {
            inject(&mut net, ids[1], junk);
        }
        ch.run(&mut net);
        assert!(ch.recv(&mut net, ids[2]).is_empty());
        assert_eq!(ch.decode_dropped, 4);
        assert_eq!(ch.frames_flooded, 0, "nothing undecodable is passed on");
        // The same frame with no defect is delivered.
        inject(&mut net, ids[1], good);
        ch.run(&mut net);
        assert_eq!(ch.recv(&mut net, ids[2]), [msg]);
    }

    #[test]
    fn a_straggler_of_a_finished_flood_is_counted_and_not_delivered_again() {
        let (mut net, ids) = ring(4);
        let mut ch = InBandChannel::new();
        let msg = MgmtMessage::new(ids[0], ids[2], MessageCategory::Command, b"x".to_vec());
        ch.send(&mut net, msg.clone());
        ch.run(&mut net);
        assert_eq!(ch.recv(&mut net, ids[2]).len(), 1);
        // A copy of flood 1 turns up after it died out.
        inject(&mut net, ids[1], flood_frame(&msg, 1));
        ch.run(&mut net);
        assert!(ch.recv(&mut net, ids[2]).is_empty());
        assert_eq!(ch.stragglers_dropped, 1);
    }

    /// The duplicate state holds one run's floods: after any number of
    /// send/recv rounds it is empty, so it does not grow with the rounds.
    #[test]
    fn the_channel_forgets_every_flood_that_died_out() {
        let (mut net, ids) = ring(6);
        let mut ch = InBandChannel::new();
        for k in 1..=24 {
            let to = ids[1 + k % 5];
            ch.send(
                &mut net,
                MgmtMessage::new(ids[0], to, MessageCategory::Command, vec![k as u8]),
            );
            ch.run(&mut net);
            let got = ch.recv(&mut net, to);
            assert_eq!(got.len(), 1, "round {k}");
            assert_eq!((got[0].from, got[0].payload[0]), (ids[0], k as u8));
            assert!(ch.seen.is_empty(), "round {k}: {:?}", ch.seen);
        }
        assert!(ch.recv(&mut net, ids[0]).is_empty(), "nothing comes back");
        assert_eq!(ch.stragglers_dropped + ch.decode_dropped, 0);
    }

    #[test]
    fn no_preconfiguration_needed_on_the_vpn_testbed() {
        // The Figure 4 testbed has no routes for the management traffic at
        // all; the in-band channel still reaches every device from any one
        // of them (here Router B, the core router, sends as the NM would).
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
        ch.run(&mut t.net);
        for target in [t.core[0], t.core[2], t.customer1, t.customer2] {
            let got = ch.recv(&mut t.net, target);
            assert_eq!(got.len(), 1, "device should receive exactly one command");
        }
        // The data plane was not needed nor touched: the flood put nothing
        // but management frames on the wire — not one ARP request.
        let mgmt = [Layer::Ethernet, Layer::Management];
        assert!(t.net.trace().iter().all(|e| e.packet().layers == mgmt));
    }

    /// A frame just under 187 KB crosses the testbed's `wan` core links
    /// within the two idle 10 ms steps, so the `run` after its `send`
    /// delivers it.
    #[test]
    fn a_frame_under_the_wan_bound_is_delivered_by_the_next_run() {
        let mut t = topology::figure4();
        let mut ch = InBandChannel::new();
        let (from, to) = (t.core[0], t.core[2]);
        let payload = vec![7; 180_000];
        ch.send(
            &mut t.net,
            MgmtMessage::new(from, to, MessageCategory::Command, payload),
        );
        ch.run(&mut t.net);
        assert_eq!(ch.recv(&mut t.net, to).len(), 1);
        assert_eq!(ch.stragglers_dropped, 0);
    }

    /// A 200 000 B frame needs 21 ms on a `wan` link, longer than the two
    /// idle steps: `run` keeps stepping while it is in flight, so the `run`
    /// after its `send` still delivers it and nothing turns up later as a
    /// straggler.
    #[test]
    fn a_frame_longer_on_its_link_than_the_idle_steps_is_delivered_by_the_next_run() {
        let mut t = topology::figure4();
        let mut ch = InBandChannel::new();
        let (from, to) = (t.core[0], t.core[2]);
        let payload = vec![7; 200_000];
        ch.send(
            &mut t.net,
            MgmtMessage::new(from, to, MessageCategory::Command, payload.clone()),
        );
        ch.run(&mut t.net);
        let got = ch.recv(&mut t.net, to);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, payload);
        assert_eq!(t.net.management_frames_in_flight(), 0);
        // Nothing of the flood is left to arrive after the floor was set.
        ch.run(&mut t.net);
        assert!(ch.recv(&mut t.net, to).is_empty());
        assert_eq!(ch.stragglers_dropped, 0);
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

//! The network: devices, links, the event loop and the packet trace.

use crate::clock::{SimDuration, SimTime};
use crate::device::{Device, DeviceId, EngineOutput, PortId};
use crate::ether::EthernetFrame;
use crate::event::{EventQueue, FrameArrival};
use crate::link::{Endpoint, Link, LinkId, LinkProperties};
use crate::stats::{DeviceStats, FlowCounters, LookupWork};
use crate::trace::{PacketTrace, TraceEntry};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Errors raised by network construction and operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// Referenced device does not exist.
    UnknownDevice(DeviceId),
    /// Referenced port does not exist on the device.
    UnknownPort(DeviceId, PortId),
    /// The port is already attached to a link.
    PortInUse(DeviceId, PortId),
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::UnknownDevice(d) => write!(f, "unknown device {d}"),
            NetworkError::UnknownPort(d, p) => write!(f, "unknown port {p} on {d}"),
            NetworkError::PortInUse(d, p) => write!(f, "port {p} on {d} already attached"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// The simulated network.
#[derive(Debug, Default)]
pub struct Network {
    devices: BTreeMap<DeviceId, Device>,
    links: Vec<Link>,
    queue: EventQueue,
    trace: PacketTrace,
    frames_delivered: u64,
    frames_lost: u64,
    /// Monotonic counter feeding the deterministic per-link loss sampler.
    loss_sequence: u64,
    /// Open flow-attribution window: the tag plus, for each device the
    /// window's traffic has reached so far, its tallies just before the
    /// first frame was handed to it (see [`Network::begin_flow_window`]).
    flow_window: Option<(u64, BTreeMap<DeviceId, FlowCounters>)>,
}

/// The device-level tallies a flow window diffs, as one sample.
fn tallies(stats: &DeviceStats) -> FlowCounters {
    FlowCounters {
        originated: stats.originated,
        forwarded: stats.forwarded,
        local_delivered: stats.local_delivered,
        drops: stats.total_drops(),
    }
}

/// Deterministic loss decision: a splitmix64 hash of the per-network frame
/// sequence and the link id, compared against the loss rate.
fn sample_loss(sequence: &mut u64, link: LinkId, loss_ppm: u32) -> bool {
    *sequence += 1;
    let z = crate::clock::splitmix64(sequence.wrapping_add(u64::from(link.0) << 32));
    (z % 1_000_000) < u64::from(loss_ppm)
}

impl Network {
    /// Create an empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Total frames delivered across all links so far.
    pub fn frames_delivered(&self) -> u64 {
        self.frames_delivered
    }

    /// Total frames dropped by link loss (`loss_ppm`) so far.
    pub fn frames_lost(&self) -> u64 {
        self.frames_lost
    }

    /// Add a device, returning its id.
    pub fn add_device(&mut self, device: Device) -> DeviceId {
        let id = device.id;
        self.devices.insert(id, device);
        id
    }

    /// The per-packet lookup work of every device, summed (see
    /// [`LookupWork`]).  Counters only grow: take the difference of two
    /// readings to price what ran between them.
    pub fn lookup_work(&self) -> LookupWork {
        let mut sum = LookupWork::default();
        for device in self.devices.values() {
            sum.absorb(&device.lookup_work);
        }
        sum
    }

    /// Access a device.
    pub fn device(&self, id: DeviceId) -> Result<&Device, NetworkError> {
        self.devices.get(&id).ok_or(NetworkError::UnknownDevice(id))
    }

    /// Access a device mutably.
    pub fn device_mut(&mut self, id: DeviceId) -> Result<&mut Device, NetworkError> {
        self.devices
            .get_mut(&id)
            .ok_or(NetworkError::UnknownDevice(id))
    }

    /// All device ids.  Used by the in-band channel, which pumps every
    /// device's management queue.
    pub fn device_ids(&self) -> Vec<DeviceId> {
        self.devices.keys().copied().collect()
    }

    /// All devices.
    pub fn devices(&self) -> impl Iterator<Item = &Device> {
        self.devices.values()
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Access a link.
    pub fn link(&self, id: LinkId) -> Option<&Link> {
        self.links.get(id.0 as usize)
    }

    /// Connect two ports with a point-to-point link.
    pub fn connect(
        &mut self,
        a: (DeviceId, PortId),
        b: (DeviceId, PortId),
        properties: LinkProperties,
    ) -> Result<LinkId, NetworkError> {
        let id = LinkId(self.links.len() as u32);
        // Validate and attach both ports first.
        for (dev, port) in [a, b] {
            let device = self
                .devices
                .get_mut(&dev)
                .ok_or(NetworkError::UnknownDevice(dev))?;
            let nic = device
                .port_mut(port)
                .ok_or(NetworkError::UnknownPort(dev, port))?;
            if nic.link.is_some() {
                return Err(NetworkError::PortInUse(dev, port));
            }
            nic.link = Some(id);
        }
        self.links.push(Link {
            id,
            endpoints: [a, b].map(|(device, port)| Endpoint { device, port }),
            properties,
        });
        Ok(id)
    }

    /// Enable or disable a link (models cutting a wire for fault-injection
    /// tests, or the NM "enabling" a discovered physical pipe).
    pub fn set_link_enabled(&mut self, id: LinkId, enabled: bool) {
        if let Some(link) = self.links.get_mut(id.0 as usize) {
            link.properties.enabled = enabled;
        }
    }

    /// Set a link's loss rate in parts per million.  Losses are sampled
    /// deterministically (a hash of a per-network sequence number), so runs
    /// replay exactly.
    pub(crate) fn set_link_loss(&mut self, id: LinkId, loss_ppm: u32) {
        if let Some(link) = self.links.get_mut(id.0 as usize) {
            link.properties.loss_ppm = loss_ppm;
        }
    }

    /// Power a device on or off.  Powering off models a crash: pending
    /// frames to it are dropped and its management agent is unreachable.
    /// Powering it back on counts a boot and flushes runtime caches (ARP,
    /// MAC learning, tunnel sequence state), as a reboot would.
    pub fn set_device_up(&mut self, id: DeviceId, up: bool) {
        if let Some(device) = self.devices.get_mut(&id) {
            device.boots += u64::from(up && !device.up);
            device.up = up;
            if up {
                device.flush_runtime_state();
            }
        }
    }

    /// The point-to-point link connecting two devices, if any.
    pub fn link_between(&self, a: DeviceId, b: DeviceId) -> Option<LinkId> {
        self.links
            .iter()
            .find(|l| {
                l.endpoints.iter().any(|e| e.device == a)
                    && l.endpoints.iter().any(|e| e.device == b)
            })
            .map(|l| l.id)
    }

    /// The physical adjacency of a device: for every attached port, the set
    /// of `(neighbour device, neighbour port)` pairs on the same link.  This
    /// is what each device reports to the NM over the management channel.
    pub fn physical_neighbors(&self, id: DeviceId) -> Vec<(PortId, DeviceId, PortId)> {
        let mut out = Vec::new();
        for link in &self.links {
            for ep in link.endpoints {
                if ep.device == id {
                    if let Some(other) = link.peer_of(ep) {
                        out.push((ep.port, other.device, other.port));
                    }
                }
            }
        }
        out.sort_by_key(|(p, d, dp)| (p.0, d.as_u64(), dp.0));
        out
    }

    // ------------------------------------------------------------------
    // Flow attribution windows
    // ------------------------------------------------------------------

    /// Open a flow-attribution window for `tag`.  Every change to the
    /// device-level tallies (originated / forwarded / delivered / drops)
    /// between now and the matching [`Self::end_flow_window`] is credited to
    /// `tag` in each device's [`stats.flows`](crate::stats::DeviceStats).
    ///
    /// The window opens empty and costs nothing per device: a device's
    /// tallies are sampled the first time the network hands it a frame
    /// inside the window (an injection or an arrival), and closing diffs
    /// only the devices so touched — the ones the traffic never reached have
    /// nothing to credit.
    ///
    /// The simulator is single-threaded and traffic bursts run to
    /// quiescence, so a window contains exactly the traffic injected inside
    /// it; the management layers use the owning goal id as the tag so probe
    /// bursts of concurrent goals attribute separately.  Opening a new
    /// window closes any window still open.
    pub fn begin_flow_window(&mut self, tag: u64) {
        self.end_flow_window();
        self.flow_window = Some((tag, BTreeMap::new()));
    }

    /// Close the open flow window (if any), crediting the per-device deltas
    /// to the window's tag.  Returns the tag that was closed.
    pub fn end_flow_window(&mut self) -> Option<u64> {
        let (tag, touched) = self.flow_window.take()?;
        for (id, before) in touched {
            let Some(device) = self.devices.get_mut(&id) else {
                continue;
            };
            let now = tallies(&device.stats);
            let delta = FlowCounters {
                originated: now.originated.saturating_sub(before.originated),
                forwarded: now.forwarded.saturating_sub(before.forwarded),
                local_delivered: now.local_delivered.saturating_sub(before.local_delivered),
                drops: now.drops.saturating_sub(before.drops),
            };
            if !delta.is_empty() {
                device.stats.flows.entry(tag).or_default().absorb(&delta);
            }
        }
        Some(tag)
    }

    /// The device about to be handed a frame, its tallies sampled into the
    /// open flow window first if this is the window's first contact with it.
    fn touch(&mut self, id: DeviceId) -> Result<&mut Device, NetworkError> {
        let device = self
            .devices
            .get_mut(&id)
            .ok_or(NetworkError::UnknownDevice(id))?;
        if let Some((_, touched)) = &mut self.flow_window {
            touched.entry(id).or_insert_with(|| tallies(&device.stats));
        }
        Ok(device)
    }

    /// Drop every device's counters for flow `tag`.  The management layers
    /// call this when the goal that owned the tag is withdrawn, so a
    /// churning fleet's per-device flow maps stay as small as the live fleet.
    pub fn forget_flow(&mut self, tag: u64) {
        for device in self.devices.values_mut() {
            device.stats.flows.remove(&tag);
        }
    }

    /// The counters attributed to `tag` on one device (zero counters when
    /// the flow never touched it).
    pub fn flow_counters(&self, device: DeviceId, tag: u64) -> FlowCounters {
        self.devices
            .get(&device)
            .map(|d| d.stats.flow(tag))
            .unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Traffic injection
    // ------------------------------------------------------------------

    /// Have `device` originate a UDP datagram and dispatch whatever frames
    /// result.
    pub fn send_udp(
        &mut self,
        device: DeviceId,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
    ) -> Result<(), NetworkError> {
        let out = self
            .touch(device)?
            .originate_udp(dst, src_port, dst_port, payload);
        self.dispatch(device, out);
        Ok(())
    }

    /// Have `device` transmit a raw frame out of `port`.  Used by the in-band
    /// channel to flood management frames.
    pub fn send_raw_frame(
        &mut self,
        device: DeviceId,
        port: PortId,
        frame: &EthernetFrame,
    ) -> Result<(), NetworkError> {
        let out = self.touch(device)?.originate_frame(port, frame);
        self.dispatch(device, out);
        Ok(())
    }

    /// Dispatch the transmissions a device produced: place each frame on the
    /// link attached to its egress port and schedule arrival at the far end.
    pub(crate) fn dispatch(&mut self, from: DeviceId, output: EngineOutput) {
        let now = self.queue.now();
        let Some(device) = self.devices.get(&from).filter(|d| d.up) else {
            return; // crashed devices transmit nothing
        };
        for (port, bytes) in output.transmissions {
            let Some(link_id) = device.port(port).and_then(|nic| nic.link) else {
                continue;
            };
            let Some(link) = self.links.get(link_id.0 as usize) else {
                continue;
            };
            if !link.properties.enabled {
                continue;
            }
            let loss_ppm = link.properties.loss_ppm;
            if loss_ppm > 0 && sample_loss(&mut self.loss_sequence, link_id, loss_ppm) {
                self.frames_lost += 1;
                continue;
            }
            let arrival = now + link.transfer_time(bytes.len());
            let Some(to) = link.peer_of(Endpoint { device: from, port }) else {
                continue;
            };
            // One buffer per transmission, shared by the trace and the
            // arrival event.
            let frame: Arc<[u8]> = bytes.into();
            self.trace.record(TraceEntry {
                time: now,
                from_device: from,
                from_port: port,
                link: link_id,
                frame: Arc::clone(&frame),
            });
            self.queue.schedule(
                arrival,
                FrameArrival {
                    device: to.device,
                    port: to.port,
                    frame,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Process events until the queue is empty or `max_events` have been
    /// handled.  Returns the number of events processed.
    pub fn run_to_quiescence(&mut self, max_events: u64) -> u64 {
        let mut handled = 0;
        while handled < max_events {
            let Some(arrival) = self.queue.pop() else {
                break;
            };
            self.handle_arrival(arrival);
            handled += 1;
        }
        handled
    }

    /// Process events until simulated time reaches `deadline` or the queue
    /// empties.  The clock always ends up at `deadline`, even when no events
    /// were pending — "run for 10ms" really advances 10ms of simulated time.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut handled = 0;
        while let Some(arrival) = self.queue.pop_before(deadline) {
            self.handle_arrival(arrival);
            handled += 1;
        }
        self.queue.advance_to(deadline);
        handled
    }

    /// Process events for `duration` of simulated time.
    pub fn run_for(&mut self, duration: SimDuration) -> u64 {
        let deadline = self.now() + duration;
        self.run_until(deadline)
    }

    fn handle_arrival(&mut self, arrival: FrameArrival) {
        let FrameArrival {
            device,
            port,
            frame,
        } = arrival;
        self.frames_delivered += 1;
        let Ok(dev) = self.touch(device) else {
            return;
        };
        if !dev.up {
            return; // crashed devices drop everything on the floor
        }
        let out = dev.handle_frame(port, &frame);
        self.dispatch(device, out);
    }

    // ------------------------------------------------------------------
    // Trace access
    // ------------------------------------------------------------------

    /// The packet trace: the most recent transmissions, raw (see
    /// [`PacketTrace`]).  Its length saturates at
    /// [`TRACE_CAPACITY`](crate::trace::TRACE_CAPACITY), so a network can run
    /// for ever.
    pub fn trace(&self) -> &PacketTrace {
        &self.trace
    }

    /// Clear the packet trace.
    pub fn clear_trace(&mut self) {
        self.trace.clear();
    }

    /// Convenience: the protocol paths (e.g. `ETH/IP/GRE/IP/payload`) of the
    /// traced frames the given device transmitted, parsed here on read.
    pub fn protocol_paths_from(&self, device: DeviceId) -> Vec<String> {
        self.trace
            .iter()
            .filter(|t| t.from_device == device)
            .map(|t| t.packet().protocol_path())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceRole;
    use crate::ipv4::Ipv4Cidr;
    use crate::route::{Route, RouteTarget};

    fn cidr(s: &str) -> Ipv4Cidr {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// A boot is counted when a device that was down powers on, not when
    /// one already up is powered on again.
    #[test]
    fn powering_a_crashed_device_on_counts_a_boot() {
        let mut net = Network::new();
        let r = net.add_device(Device::new("r", DeviceRole::Router, 1));
        let boots = |net: &Network| net.device(r).unwrap().boots;
        net.set_device_up(r, true);
        assert_eq!(boots(&net), 0);
        net.set_device_up(r, false);
        net.set_device_up(r, false);
        assert_eq!(boots(&net), 0);
        net.set_device_up(r, true);
        net.set_device_up(r, true);
        assert_eq!(boots(&net), 1);
    }

    /// Two hosts on one link exchange a UDP datagram (including ARP).
    #[test]
    fn two_hosts_exchange_udp() {
        let mut net = Network::new();
        let mut h1 = Device::new("h1", DeviceRole::Host, 1);
        h1.config.assign_address(0, cidr("10.0.0.1/24"));
        let mut h2 = Device::new("h2", DeviceRole::Host, 1);
        h2.config.assign_address(0, cidr("10.0.0.2/24"));
        let h1 = net.add_device(h1);
        let h2 = net.add_device(h2);
        net.connect((h1, PortId(0)), (h2, PortId(0)), LinkProperties::lan())
            .unwrap();

        net.send_udp(h1, ip("10.0.0.2"), 1234, 5678, b"hello")
            .unwrap();
        net.run_to_quiescence(1000);

        let delivered = net.device_mut(h2).unwrap().take_delivered();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].payload, b"hello");
        assert_eq!(delivered[0].dst_port, Some(5678));
        // ARP request + reply + data = at least 3 frames in the trace.
        assert!(net.trace().len() >= 3);
        assert!(net.now() > SimTime::ZERO);
    }

    /// The trace holds the most recent `TRACE_CAPACITY` transmissions: its
    /// length saturates there and only `clear_trace` ever lowers it.
    #[test]
    fn trace_is_a_bounded_ring_of_the_latest_frames() {
        use crate::trace::TRACE_CAPACITY;
        let mut net = Network::new();
        let mut h1 = Device::new("h1", DeviceRole::Host, 1);
        h1.config.assign_address(0, cidr("10.0.0.1/24"));
        let mut h2 = Device::new("h2", DeviceRole::Host, 1);
        h2.config.assign_address(0, cidr("10.0.0.2/24"));
        let h1 = net.add_device(h1);
        let h2 = net.add_device(h2);
        net.connect((h1, PortId(0)), (h2, PortId(0)), LinkProperties::lan())
            .unwrap();

        let mut last_len = 0;
        for i in 0..TRACE_CAPACITY + 100 {
            net.send_udp(h1, ip("10.0.0.2"), 1, 2, &[i as u8]).unwrap();
            net.run_to_quiescence(1000);
            let len = net.trace().len();
            assert!(len >= last_len, "the trace never shrinks by itself");
            assert!(len <= TRACE_CAPACITY);
            last_len = len;
        }
        assert_eq!(net.trace().len(), TRACE_CAPACITY);
        // Oldest first, and the newest entry is the last datagram sent.
        let times: Vec<_> = net.trace().iter().map(|t| t.time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        let newest = net.trace().iter().last().unwrap();
        assert_eq!(newest.from_device, h1);
        assert_eq!(
            newest.frame.last(),
            Some(&((TRACE_CAPACITY + 99) as u8)),
            "the raw frame is kept"
        );
        assert!(newest.packet().protocol_path().starts_with("ETH/IP("));
        assert_eq!(
            net.protocol_paths_from(h2).len(),
            0,
            "h2's ARP reply aged out"
        );

        net.clear_trace();
        assert!(net.trace().is_empty());
        net.send_udp(h1, ip("10.0.0.2"), 1, 2, b"x").unwrap();
        net.run_to_quiescence(1000);
        assert_eq!(net.trace().len(), 1);
    }

    /// A host reaches a host on another subnet through a forwarding router.
    #[test]
    fn udp_through_a_router() {
        let mut net = Network::new();
        let mut h1 = Device::new("h1", DeviceRole::Host, 1);
        h1.config.assign_address(0, cidr("10.0.1.5/24"));
        h1.config.rib.add_main(Route {
            dest: Ipv4Cidr::DEFAULT,
            target: RouteTarget::Port {
                port: 0,
                via: Some(ip("10.0.1.1")),
            },
        });
        let mut r = Device::new("r", DeviceRole::Router, 2);
        r.config.ip_forwarding = true;
        r.config.assign_address(0, cidr("10.0.1.1/24"));
        r.config.assign_address(1, cidr("10.0.2.1/24"));
        let mut h2 = Device::new("h2", DeviceRole::Host, 1);
        h2.config.assign_address(0, cidr("10.0.2.5/24"));
        h2.config.rib.add_main(Route {
            dest: Ipv4Cidr::DEFAULT,
            target: RouteTarget::Port {
                port: 0,
                via: Some(ip("10.0.2.1")),
            },
        });
        let h1 = net.add_device(h1);
        let r = net.add_device(r);
        let h2 = net.add_device(h2);
        net.connect((h1, PortId(0)), (r, PortId(0)), LinkProperties::lan())
            .unwrap();
        net.connect((h2, PortId(0)), (r, PortId(1)), LinkProperties::lan())
            .unwrap();

        net.send_udp(h1, ip("10.0.2.5"), 99, 1, b"via r").unwrap();
        net.run_to_quiescence(1000);
        let delivered = net.device_mut(h2).unwrap().take_delivered();
        assert_eq!(delivered.len(), 1, "h2 should receive the datagram");
        assert_eq!(delivered[0].src, ip("10.0.1.5"));
        assert_eq!(net.device(r).unwrap().stats.forwarded, 1);
    }

    #[test]
    fn disabled_link_blackholes_traffic() {
        let mut net = Network::new();
        let mut h1 = Device::new("h1", DeviceRole::Host, 1);
        h1.config.assign_address(0, cidr("10.0.0.1/24"));
        let mut h2 = Device::new("h2", DeviceRole::Host, 1);
        h2.config.assign_address(0, cidr("10.0.0.2/24"));
        let h1 = net.add_device(h1);
        let h2 = net.add_device(h2);
        let link = net
            .connect((h1, PortId(0)), (h2, PortId(0)), LinkProperties::lan())
            .unwrap();
        net.set_link_enabled(link, false);
        net.send_udp(h1, ip("10.0.0.2"), 1, 2, b"x").unwrap();
        net.run_to_quiescence(1000);
        assert!(net.device_mut(h2).unwrap().take_delivered().is_empty());
    }

    #[test]
    fn physical_neighbors_reports_adjacency() {
        let mut net = Network::new();
        let a = net.add_device(Device::new("a", DeviceRole::Router, 2));
        let b = net.add_device(Device::new("b", DeviceRole::Router, 2));
        let c = net.add_device(Device::new("c", DeviceRole::Router, 2));
        net.connect((a, PortId(1)), (b, PortId(0)), LinkProperties::lan())
            .unwrap();
        net.connect((b, PortId(1)), (c, PortId(0)), LinkProperties::lan())
            .unwrap();
        let nbrs = net.physical_neighbors(b);
        assert_eq!(nbrs.len(), 2);
        assert!(nbrs.contains(&(PortId(0), a, PortId(1))));
        assert!(nbrs.contains(&(PortId(1), c, PortId(0))));
        assert_eq!(net.physical_neighbors(a).len(), 1);
    }

    #[test]
    fn connect_errors() {
        let mut net = Network::new();
        let a = net.add_device(Device::new("a", DeviceRole::Host, 1));
        let b = net.add_device(Device::new("b", DeviceRole::Host, 1));
        assert!(matches!(
            net.connect((a, PortId(5)), (b, PortId(0)), LinkProperties::lan()),
            Err(NetworkError::UnknownPort(..))
        ));
        net.connect((a, PortId(0)), (b, PortId(0)), LinkProperties::lan())
            .unwrap();
        assert!(matches!(
            net.connect((a, PortId(0)), (b, PortId(0)), LinkProperties::lan()),
            Err(NetworkError::PortInUse(..))
        ));
    }
}

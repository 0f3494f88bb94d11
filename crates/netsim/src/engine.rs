//! The forwarding engine: how a device processes a received frame.
//!
//! This is the simulated stand-in for the Linux 2.6.14 data plane the paper's
//! protocol modules wrapped.  It implements:
//!
//! * Ethernet reception/transmission with ARP resolution,
//! * IPv4 local delivery, forwarding (with policy routing), TTL and filters,
//! * GRE and IP-IP tunnel encapsulation/decapsulation (keys, sequence
//!   numbers, checksums),
//! * MPLS label push/swap/pop via ILM/NHLFE/XC tables,
//! * 802.1Q VLAN bridging with access, trunk and dot1q-tunnel (Q-in-Q) ports.
//!
//! **Who owns the bytes.**  A received frame is read in place: every decoder
//! returns its payload as a slice of the frame, so `handle_frame` →
//! `ip_input` → `ip_forward` → `ip_output` pass slices down and copy
//! nothing.  An outgoing frame is written once, into the [`EngineOutput`]
//! the network lends the device: the innermost bytes first, then each header
//! the route needs prepended in front of them, Ethernet last, once the next
//! hop's MAC is known.  Only what outlives the frame is copied out: a
//! management payload for the agent's queue, a locally delivered payload and
//! a packet parked until ARP resolves.

use crate::arp::{ArpCache, ArpOp, ArpPacket, PendingPacket};
use crate::config::{SwitchPortMode, TunnelMode};
use crate::device::{Delivered, Device, DeviceRole, EngineOutput, MgmtFrame, Packet, PortId};
use crate::ether::{ethertype_of, EtherType, EthernetFrame};
use crate::gre::{self, GreHeader, GRE_PROTO_IPV4};
use crate::ipv4::{Ipv4Header, Ipv4Proto};
use crate::mac::MacAddr;
use crate::mpls::{self, LabelOp, LabelStackEntry};
use crate::route::{IncomingIf, RouteTarget};
use crate::stats::DropReason;
use crate::udp::UdpHeader;
use crate::vlan;
use std::net::Ipv4Addr;

/// Maximum tunnel-in-tunnel nesting the engine will encapsulate before
/// declaring a configuration loop.
const MAX_ENCAP_DEPTH: u8 = 8;

/// The Ethernet header of a frame from `src` to `dst`.
fn ethernet_header(dst: MacAddr, src: MacAddr, ethertype: EtherType) -> [u8; 14] {
    EthernetFrame::new(dst, src, ethertype, ()).header()
}

/// Prepend the header of an IPv4 packet carrying the open packet.
fn prepend_ipv4(header: &Ipv4Header, packet: &mut Packet, out: &mut EngineOutput) {
    let payload_len = out.packet(packet).len();
    out.prepend(packet, &header.header_bytes(payload_len));
}

impl Device {
    /// Process a frame received on `port`, writing the frames to transmit
    /// in response into `out`.
    pub(crate) fn handle_frame(&mut self, port: PortId, bytes: &[u8], out: &mut EngineOutput) {
        let Ok(frame) = EthernetFrame::decode(bytes) else {
            self.stats.port(port.0).rx(bytes.len());
            self.stats.record_drop(DropReason::Malformed);
            self.stats.port(port.0).drop_packet();
            return;
        };

        // Management-channel frames bypass the data plane entirely on every
        // device role: they are queued for the management agent.  They are
        // also invisible to the data-plane counters — otherwise the in-band
        // channel's own flooding would mask the very counter deltas the
        // diagnosis layer compares.
        if frame.ethertype == EtherType::Management {
            self.mgmt_rx.push_back(MgmtFrame {
                port: Some(port),
                src_mac: frame.src,
                payload: frame.payload.to_vec(),
            });
            return;
        }
        self.stats.port(port.0).rx(bytes.len());

        match self.role {
            DeviceRole::Switch => self.bridge_input(port, &frame, out),
            DeviceRole::Router | DeviceRole::Host => self.l3_input(port, &frame, out),
        }
    }

    /// Originate a UDP datagram (application traffic, self-tests).  The
    /// source address is chosen from the egress interface.
    pub(crate) fn originate_udp(
        &mut self,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
        out: &mut EngineOutput,
    ) {
        self.stats.originated += 1;
        let src = self.default_source_for(dst);
        let mut packet = out.open(payload);
        let udp = UdpHeader::new(src_port, dst_port).header_bytes(payload.len());
        out.prepend(&mut packet, &udp);
        let header = Ipv4Header::new(src, dst, Ipv4Proto::Udp);
        self.ip_output(IncomingIf::Local, header, packet, 0, out);
    }

    /// Transmit a raw frame out of a specific port (used by the in-band
    /// management channel, which floods frames without consulting the data
    /// plane).
    pub(crate) fn originate_frame(
        &mut self,
        port: PortId,
        frame: &EthernetFrame,
        out: &mut EngineOutput,
    ) {
        let mut packet = out.open(&frame.payload);
        out.prepend(&mut packet, &frame.header());
        self.transmit(port, packet, out);
    }

    fn default_source_for(&self, dst: Ipv4Addr) -> Ipv4Addr {
        if let Some((_, cidr)) = self.config.port_for_subnet(dst) {
            return cidr.addr;
        }
        self.config
            .local_addresses()
            .next()
            .unwrap_or(Ipv4Addr::UNSPECIFIED)
    }

    // ------------------------------------------------------------------
    // Layer 3 (hosts and routers)
    // ------------------------------------------------------------------

    fn l3_input(&mut self, port: PortId, frame: &EthernetFrame<&[u8]>, out: &mut EngineOutput) {
        let our_mac = self.port_mac(port);
        if frame.dst != our_mac && !frame.dst.is_broadcast() {
            self.stats.record_drop(DropReason::NotForUs);
            return;
        }
        match frame.ethertype {
            EtherType::Arp => self.arp_input(port, frame.payload, out),
            EtherType::Ipv4 => self.ip_input(IncomingIf::Port(port.0), frame.payload, out),
            EtherType::Mpls => self.mpls_input(port, frame.payload, out),
            EtherType::Vlan => {
                // Routers in this simulator do not terminate VLAN trunks.
                self.stats.record_drop(DropReason::Malformed);
            }
            EtherType::Management => unreachable!("handled in handle_frame"),
            EtherType::Other(_) => self.stats.record_drop(DropReason::Malformed),
        }
    }

    fn arp_input(&mut self, port: PortId, payload: &[u8], out: &mut EngineOutput) {
        let Ok(packet) = ArpPacket::decode(payload) else {
            self.stats.record_drop(DropReason::Malformed);
            return;
        };
        // Learn the sender mapping opportunistically, releasing any parked
        // packets.
        let released = self.arp.insert(packet.sender_ip, packet.sender_mac);
        for pending in released {
            self.transmit_resolved(pending, packet.sender_mac, out);
        }
        let probes = &mut self.lookup_work.tunnel_address_probes;
        if packet.op == ArpOp::Request
            && self
                .config
                .is_local_address_counting(packet.target_ip, probes)
        {
            let our_mac = self.port_mac(port);
            let mut reply = out.open(&packet.reply_to(our_mac).encode());
            out.prepend(
                &mut reply,
                &ethernet_header(packet.sender_mac, our_mac, EtherType::Arp),
            );
            self.transmit(port, reply, out);
        }
    }

    fn transmit_resolved(&mut self, pending: PendingPacket, mac: MacAddr, out: &mut EngineOutput) {
        let port = PortId(pending.port);
        let ethertype = EtherType::from_u16(pending.ethertype);
        let mut packet = out.open(&pending.bytes);
        out.prepend(
            &mut packet,
            &ethernet_header(mac, self.port_mac(port), ethertype),
        );
        self.transmit(port, packet, out);
    }

    fn ip_input(&mut self, iif: IncomingIf, packet: &[u8], out: &mut EngineOutput) {
        let Ok((header, payload)) = Ipv4Header::decode_packet(packet) else {
            self.stats.record_drop(DropReason::Malformed);
            return;
        };
        // Filters are evaluated on every IP packet the device handles.
        let dst_port = transport_dst_port(&header, payload);
        if !self
            .config
            .filters_allow(header.src, header.dst, header.protocol, dst_port)
        {
            self.stats.record_drop(DropReason::Filtered);
            return;
        }
        let probes = &mut self.lookup_work.tunnel_address_probes;
        if self.config.is_local_address_counting(header.dst, probes) {
            self.local_input(header, payload, out);
        } else {
            self.ip_forward(iif, header, payload, out);
        }
    }

    fn ip_forward(
        &mut self,
        iif: IncomingIf,
        mut header: Ipv4Header,
        payload: &[u8],
        out: &mut EngineOutput,
    ) {
        if !self.config.ip_forwarding {
            self.stats.record_drop(DropReason::ForwardingDisabled);
            return;
        }
        if header.ttl <= 1 {
            self.stats.record_drop(DropReason::TtlExpired);
            return;
        }
        header.ttl -= 1;
        // Count the forward only if the packet actually left the device (or
        // entered a tunnel that emitted it): a transit packet that dies on
        // route lookup is a drop, not a forward — per-goal flow accounting
        // relies on the two being mutually exclusive.
        let packet = out.open(payload);
        if self.ip_output(iif, header, packet, 0, out) {
            self.stats.forwarded += 1;
        }
    }

    fn local_input(&mut self, header: Ipv4Header, payload: &[u8], out: &mut EngineOutput) {
        let (dst_port, data) = match header.protocol {
            Ipv4Proto::Gre => return self.gre_decap(header, payload, out),
            Ipv4Proto::IpIp => return self.ipip_decap(header, payload, out),
            Ipv4Proto::Udp => match UdpHeader::decode_datagram(payload) {
                Ok((udp, data)) => (Some(udp.dst_port), data),
                Err(_) => return self.stats.record_drop(DropReason::Malformed),
            },
            _ => (None, payload),
        };
        self.stats.local_delivered += 1;
        self.delivered.push(Delivered {
            src: header.src,
            dst: header.dst,
            proto: header.protocol,
            dst_port,
            payload: data.to_vec(),
        });
    }

    fn gre_decap(&mut self, outer: Ipv4Header, payload: &[u8], out: &mut EngineOutput) {
        let Ok((gre, inner)) = GreHeader::decode_packet(payload) else {
            self.stats.record_drop(DropReason::Malformed);
            return;
        };
        // `tunnel` and `state` borrow `self.config`; until the inner packet
        // is handed on only `self.stats` is written beside them.
        let Some((id, tunnel, state)) =
            self.config
                .tunnel_for_incoming(outer.src, outer.dst, gre.key, TunnelMode::Gre)
        else {
            self.stats.record_drop(DropReason::TunnelMismatch);
            return;
        };
        if tunnel.icsum && !gre.checksum_present {
            self.stats.record_drop(DropReason::TunnelMismatch);
            state.counters.drop_packet();
            return;
        }
        if tunnel.iseq {
            // No sequence number, or an out-of-order packet on an in-order
            // tunnel: dropped, which is exactly the delay/jitter vs ordering
            // trade-off Table III advertises.
            let in_order = |seq: &u32| state.rx_seq == 0 || *seq > state.rx_seq;
            let Some(seq) = gre.sequence.filter(in_order) else {
                self.stats.record_drop(DropReason::TunnelMismatch);
                state.counters.drop_packet();
                return;
            };
            state.rx_seq = seq;
        }
        state.counters.rx(inner.len());
        if gre.protocol != GRE_PROTO_IPV4 {
            self.stats.record_drop(DropReason::Malformed);
            return;
        }
        self.ip_input(IncomingIf::Tunnel(id), inner, out);
    }

    fn ipip_decap(&mut self, outer: Ipv4Header, payload: &[u8], out: &mut EngineOutput) {
        let Some((id, _, state)) =
            self.config
                .tunnel_for_incoming(outer.src, outer.dst, None, TunnelMode::IpIp)
        else {
            self.stats.record_drop(DropReason::TunnelMismatch);
            return;
        };
        state.counters.rx(payload.len());
        self.ip_input(IncomingIf::Tunnel(id), payload, out);
    }

    /// Route the open packet (already TTL-adjusted) under `header` and emit
    /// it.  Returns whether it left the device (or was parked awaiting ARP
    /// resolution) — `false` always comes with a recorded drop, and the
    /// packet discarded.
    fn ip_output(
        &mut self,
        iif: IncomingIf,
        header: Ipv4Header,
        mut packet: Packet,
        depth: u8,
        out: &mut EngineOutput,
    ) -> bool {
        if depth > MAX_ENCAP_DEPTH {
            return self.drop_packet(packet, DropReason::NoRoute, out);
        }
        let work = &mut self.lookup_work;
        let route = self
            .config
            .rib
            .lookup_counting(header.dst, header.src, iif, work);
        let Some(route) = route.copied() else {
            return self.drop_packet(packet, DropReason::NoRoute, out);
        };
        match route.target {
            RouteTarget::Port { port, via } => {
                let nexthop = via.unwrap_or(header.dst);
                prepend_ipv4(&header, &mut packet, out);
                self.transmit_via_arp(PortId(port), nexthop, EtherType::Ipv4, packet, out)
            }
            RouteTarget::Tunnel { tunnel } => self.tunnel_encap(tunnel, header, packet, depth, out),
            RouteTarget::Mpls { nhlfe } => {
                let Some(entry) = self.config.mpls.nhlfe_by_key(nhlfe).cloned() else {
                    return self.drop_packet(packet, DropReason::NoLabel, out);
                };
                let LabelOp::Push(label) = entry.op else {
                    return self.drop_packet(packet, DropReason::NoLabel, out);
                };
                prepend_ipv4(&header, &mut packet, out);
                out.prepend(&mut packet, &LabelStackEntry::new(label, true).encode());
                self.transmit_via_arp(
                    PortId(entry.out_port),
                    entry.nexthop,
                    EtherType::Mpls,
                    packet,
                    out,
                )
            }
        }
    }

    fn tunnel_encap(
        &mut self,
        tunnel_id: u32,
        inner_header: Ipv4Header,
        mut packet: Packet,
        depth: u8,
        out: &mut EngineOutput,
    ) -> bool {
        // `tunnel` and `state` borrow `self.config` until the outer header
        // is built; up to there nothing else of `self` is written.
        let Some((tunnel, state)) = self.config.tunnel_state_mut(tunnel_id) else {
            return self.drop_packet(packet, DropReason::NoRoute, out);
        };
        prepend_ipv4(&inner_header, &mut packet, out);
        let proto = match tunnel.mode {
            TunnelMode::Gre => {
                let sequence = tunnel.oseq.then(|| {
                    state.tx_seq += 1;
                    state.tx_seq
                });
                let gre = GreHeader {
                    protocol: GRE_PROTO_IPV4,
                    key: tunnel.okey,
                    sequence,
                    checksum_present: tunnel.ocsum,
                };
                out.prepend(&mut packet, &gre.header_bytes()[..gre.len()]);
                gre::fill_checksum(out.packet_mut(&packet));
                Ipv4Proto::Gre
            }
            TunnelMode::IpIp => Ipv4Proto::IpIp,
        };
        state.counters.tx(out.packet(&packet).len());
        let mut outer_header = Ipv4Header::new(tunnel.local, tunnel.remote, proto);
        outer_header.ttl = tunnel.ttl;
        // The outer packet is routed like locally-originated traffic.
        self.ip_output(IncomingIf::Local, outer_header, packet, depth + 1, out)
    }

    fn mpls_input(&mut self, port: PortId, payload: &[u8], out: &mut EngineOutput) {
        let Ok((stack, inner)) = mpls::decode_stack(payload) else {
            self.stats.record_drop(DropReason::Malformed);
            return;
        };
        let top = stack.top();
        if top.ttl <= 1 {
            self.stats.record_drop(DropReason::TtlExpired);
            return;
        }
        let Some(entry) = self.config.mpls.lookup(port.0, top.label).cloned() else {
            self.stats.record_drop(DropReason::NoLabel);
            return;
        };
        let sent = if entry.op == LabelOp::Pop && top.bottom {
            // Bottom of stack popped: the payload is an IPv4 packet.
            if entry.nexthop == Ipv4Addr::UNSPECIFIED {
                // Deliver to the local IP stack which re-routes it (the
                // CONMan MPLS module uses this form: the IP module above
                // decides where the packet goes next).  That re-routing does
                // its own forwarded/dropped accounting, so return without
                // counting here — the tallies must stay mutually exclusive
                // for per-goal flow attribution.
                self.ip_input(IncomingIf::Port(port.0), inner, out);
                return;
            }
            let packet = out.open(inner);
            let nexthop = entry.nexthop;
            self.transmit_via_arp(
                PortId(entry.out_port),
                nexthop,
                EtherType::Ipv4,
                packet,
                out,
            )
        } else {
            // The entries below the top stay as they are, bottom-of-stack
            // bits included; only the top is popped, rewritten or pushed on.
            let mut packet = out.open(&payload[mpls::LABEL_ENTRY_LEN..]);
            let kept = LabelStackEntry {
                ttl: top.ttl - 1,
                ..top
            };
            match entry.op {
                LabelOp::Pop => {}
                LabelOp::Swap(label) => {
                    out.prepend(&mut packet, &LabelStackEntry { label, ..kept }.encode());
                }
                LabelOp::Push(label) => {
                    out.prepend(&mut packet, &kept.encode());
                    out.prepend(&mut packet, &LabelStackEntry::new(label, false).encode());
                }
            }
            let nexthop = entry.nexthop;
            self.transmit_via_arp(
                PortId(entry.out_port),
                nexthop,
                EtherType::Mpls,
                packet,
                out,
            )
        };
        if sent {
            self.stats.forwarded += 1;
        }
    }

    // ------------------------------------------------------------------
    // Layer 2 bridging (switches)
    // ------------------------------------------------------------------

    fn bridge_input(&mut self, port: PortId, frame: &EthernetFrame<&[u8]>, out: &mut EngineOutput) {
        let Some(bridge) = self.config.bridge.clone() else {
            self.stats.record_drop(DropReason::ForwardingDisabled);
            return;
        };
        let Some(mode) = bridge.ports.get(&port.0) else {
            self.stats.record_drop(DropReason::PortDown);
            return;
        };
        // Classify the frame into a VLAN and recover the "customer" frame
        // that will be re-emitted on egress.
        let (vlan_id, customer) = match mode {
            SwitchPortMode::Access(v) | SwitchPortMode::Dot1qTunnel(v) => (v.value(), *frame),
            SwitchPortMode::Trunk(allowed) => {
                if frame.ethertype != EtherType::Vlan {
                    self.stats.record_drop(DropReason::Malformed);
                    return;
                }
                let Ok((tag, inner_payload)) = vlan::pop_tag(frame.payload) else {
                    self.stats.record_drop(DropReason::Malformed);
                    return;
                };
                if !allowed.contains(&tag.vid) {
                    self.stats.record_drop(DropReason::Filtered);
                    return;
                }
                (
                    tag.vid.value(),
                    EthernetFrame::new(frame.dst, frame.src, tag.inner_ethertype, inner_payload),
                )
            }
        };
        // Check the MTU declared for the VLAN (Q-in-Q needs 1504).
        if let Some(vc) = bridge.vlans.get(&vlan_id) {
            if customer.wire_len() + vlan::VLAN_TAG_LEN
                > vc.mtu as usize + crate::ether::ETHERNET_HEADER_LEN
            {
                self.stats.record_drop(DropReason::MtuExceeded);
                return;
            }
        }
        // Learn the source MAC.
        self.mac_table.insert((vlan_id, customer.src), port.0);
        // Decide egress ports.
        let egress: Vec<u32> =
            if let Some(p) = self.mac_table.get(&(vlan_id, customer.dst)).copied() {
                if p == port.0 {
                    return; // already on the right segment
                }
                vec![p]
            } else {
                bridge
                    .ports
                    .iter()
                    .filter(|(p, m)| {
                        **p != port.0
                            && match m {
                                SwitchPortMode::Access(v) | SwitchPortMode::Dot1qTunnel(v) => {
                                    v.value() == vlan_id
                                }
                                SwitchPortMode::Trunk(allowed) => {
                                    allowed.iter().any(|v| v.value() == vlan_id)
                                }
                            }
                    })
                    .map(|(p, _)| *p)
                    .collect()
            };
        for p in egress {
            let mut packet = out.open(customer.payload);
            let ethertype = match &bridge.ports[&p] {
                SwitchPortMode::Access(_) | SwitchPortMode::Dot1qTunnel(_) => customer.ethertype,
                SwitchPortMode::Trunk(_) => {
                    let vid = vlan::VlanId::new(vlan_id).expect("vlan id validated on ingress");
                    let tag = vlan::VlanTag::new(vid, customer.ethertype);
                    out.prepend(&mut packet, &tag.encode());
                    EtherType::Vlan
                }
            };
            let header = ethernet_header(customer.dst, customer.src, ethertype);
            out.prepend(&mut packet, &header);
            self.transmit(PortId(p), packet, out);
        }
    }

    // ------------------------------------------------------------------
    // Transmission helpers
    // ------------------------------------------------------------------

    /// Send the open packet to `nexthop` out of `port`: behind an Ethernet
    /// header when its MAC is known, else parked (a copy) until ARP
    /// resolves it.  `false` comes with a recorded drop.
    fn transmit_via_arp(
        &mut self,
        port: PortId,
        nexthop: Ipv4Addr,
        ethertype: EtherType,
        mut packet: Packet,
        out: &mut EngineOutput,
    ) -> bool {
        let Some(nic) = self.port(port).filter(|nic| nic.is_usable()) else {
            return self.drop_packet(packet, DropReason::PortDown, out);
        };
        let our_mac = nic.mac;
        if let Some(mac) = self.arp.lookup(nexthop) {
            out.prepend(&mut packet, &ethernet_header(mac, our_mac, ethertype));
            self.transmit(port, packet, out);
            return true;
        }
        // Park the packet and emit an ARP request if this is the first one
        // waiting for this next hop.
        let first = self.arp.park(
            nexthop,
            PendingPacket {
                port: port.0,
                bytes: out.packet(&packet).to_vec(),
                ethertype: ethertype.as_u16(),
            },
        );
        out.discard(packet);
        if first {
            let sender_ip = self
                .config
                .address_on_port(port.0)
                .map(|c| c.addr)
                .unwrap_or(Ipv4Addr::UNSPECIFIED);
            let request = ArpPacket::request(our_mac, sender_ip, nexthop);
            let mut frame = out.open(&request.encode());
            let header = ethernet_header(MacAddr::BROADCAST, our_mac, EtherType::Arp);
            out.prepend(&mut frame, &header);
            self.transmit(port, frame, out);
        }
        true
    }

    /// Send the open packet, a whole Ethernet frame, out of `port`.
    fn transmit(&mut self, port: PortId, frame: Packet, out: &mut EngineOutput) {
        match self.port(port) {
            Some(nic) if nic.is_usable() => {
                // Management frames are invisible to data-plane counters
                // (see handle_frame).
                let bytes = out.packet(&frame);
                if ethertype_of(bytes) != Some(EtherType::Management) {
                    self.stats.port(port.0).tx(bytes.len());
                }
                out.push_frame(port, frame);
            }
            _ => {
                self.drop_packet(frame, DropReason::PortDown, out);
            }
        }
    }

    /// Discard the open packet and record why; always `false`.
    fn drop_packet(&mut self, packet: Packet, reason: DropReason, out: &mut EngineOutput) -> bool {
        out.discard(packet);
        self.stats.record_drop(reason);
        false
    }

    /// Reset the runtime state a reboot loses (ARP cache, MAC table, tunnel
    /// sequence counters).
    pub(crate) fn flush_runtime_state(&mut self) {
        self.arp = ArpCache::new();
        self.mac_table.clear();
        self.config.reset_tunnel_sequences();
    }
}

/// Extract the transport destination port for filter evaluation.
fn transport_dst_port(header: &Ipv4Header, payload: &[u8]) -> Option<u16> {
    if header.protocol == Ipv4Proto::Udp {
        UdpHeader::decode_datagram(payload)
            .ok()
            .map(|(u, _)| u.dst_port)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FilterAction, FilterRule, TunnelConfig};
    use crate::ipv4::Ipv4Cidr;
    use crate::link::LinkId;
    use crate::route::{Route, RouteTableId};

    fn cidr(s: &str) -> Ipv4Cidr {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// A router with two ports, addresses on both, forwarding enabled, and
    /// both ports attached to (dummy) links so transmission works.
    fn router() -> Device {
        let mut d = Device::new("R", DeviceRole::Router, 2);
        d.ports[0].link = Some(LinkId(0));
        d.ports[1].link = Some(LinkId(1));
        d.config.ip_forwarding = true;
        d.config.assign_address(0, cidr("10.0.1.1/24"));
        d.config.assign_address(1, cidr("204.9.168.1/24"));
        d
    }

    /// The frames `d` transmits in response to `frame` arriving on `port`.
    fn handle(d: &mut Device, port: PortId, frame: &[u8]) -> Vec<(PortId, Vec<u8>)> {
        let mut out = EngineOutput::default();
        d.handle_frame(port, frame, &mut out);
        out.frames().map(|(p, bytes)| (p, bytes.to_vec())).collect()
    }

    fn udp_packet(src: &str, dst: &str, dst_port: u16) -> Vec<u8> {
        let udp = UdpHeader::new(40000, dst_port).encode_datagram(b"payload");
        Ipv4Header::new(ip(src), ip(dst), Ipv4Proto::Udp).encode_packet(&udp)
    }

    #[test]
    fn local_udp_delivery() {
        let mut d = router();
        let frame = EthernetFrame::new(
            d.port_mac(PortId(0)),
            MacAddr::for_port(9, 9),
            EtherType::Ipv4,
            udp_packet("10.0.1.5", "10.0.1.1", 592),
        );
        let out = handle(&mut d, PortId(0), &frame.encode());
        assert!(out.is_empty());
        let delivered = d.take_delivered();
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].dst_port, Some(592));
        assert_eq!(delivered[0].payload, b"payload");
    }

    #[test]
    fn a_transit_packet_is_forwarded_or_dropped_never_both() {
        // A transit packet with no route is a drop, NOT a forward: per-goal
        // flow accounting (and the diagnosis frontier walk on top of it)
        // relies on the two tallies being mutually exclusive.
        let mut d = router();
        let frame = EthernetFrame::new(
            d.port_mac(PortId(0)),
            MacAddr::for_port(9, 9),
            EtherType::Ipv4,
            udp_packet("10.0.1.5", "8.8.8.8", 53),
        );
        handle(&mut d, PortId(0), &frame.encode());
        assert_eq!(d.stats.drops[&DropReason::NoRoute], 1);
        assert_eq!(d.stats.forwarded, 0, "a routeless packet never 'forwards'");
        // A routable one forwards (parked behind ARP counts: it will leave
        // the device once the reply arrives) and records no drop.
        let frame = EthernetFrame::new(
            d.port_mac(PortId(0)),
            MacAddr::for_port(9, 9),
            EtherType::Ipv4,
            udp_packet("10.0.1.5", "204.9.168.77", 53),
        );
        handle(&mut d, PortId(0), &frame.encode());
        assert_eq!(d.stats.forwarded, 1);
        assert_eq!(d.stats.total_drops(), 1, "no new drop for the forward");
    }

    #[test]
    fn forwarding_disabled_drops() {
        let mut d = router();
        d.config.ip_forwarding = false;
        let frame = EthernetFrame::new(
            d.port_mac(PortId(0)),
            MacAddr::for_port(9, 9),
            EtherType::Ipv4,
            udp_packet("10.0.1.5", "8.8.8.8", 53),
        );
        handle(&mut d, PortId(0), &frame.encode());
        assert_eq!(d.stats.drops[&DropReason::ForwardingDisabled], 1);
    }

    #[test]
    fn forwarding_emits_arp_then_packet() {
        let mut d = router();
        d.config.rib.add_main(Route {
            dest: cidr("8.8.8.0/24"),
            target: crate::route::RouteTarget::Port {
                port: 1,
                via: Some(ip("204.9.168.2")),
            },
        });
        let frame = EthernetFrame::new(
            d.port_mac(PortId(0)),
            MacAddr::for_port(9, 9),
            EtherType::Ipv4,
            udp_packet("10.0.1.5", "8.8.8.8", 53),
        );
        let out = handle(&mut d, PortId(0), &frame.encode());
        // The next hop is unresolved: an ARP request goes out instead.
        assert_eq!(out.len(), 1);
        let arp_frame = EthernetFrame::decode(&out[0].1).unwrap();
        assert_eq!(arp_frame.ethertype, EtherType::Arp);
        assert!(arp_frame.dst.is_broadcast());

        // Deliver the ARP reply; the parked packet is then transmitted.
        let peer_mac = MacAddr::for_port(7, 7);
        let reply = ArpPacket {
            op: ArpOp::Reply,
            sender_mac: peer_mac,
            sender_ip: ip("204.9.168.2"),
            target_mac: d.port_mac(PortId(1)),
            target_ip: ip("204.9.168.1"),
        };
        let reply_frame = EthernetFrame::new(
            d.port_mac(PortId(1)),
            peer_mac,
            EtherType::Arp,
            reply.encode(),
        );
        let out = handle(&mut d, PortId(1), &reply_frame.encode());
        assert_eq!(out.len(), 1);
        let fwd = EthernetFrame::decode(&out[0].1).unwrap();
        assert_eq!(fwd.ethertype, EtherType::Ipv4);
        assert_eq!(fwd.dst, peer_mac);
        let (h, _) = Ipv4Header::decode_packet(fwd.payload).unwrap();
        assert_eq!(h.ttl, 63, "TTL must be decremented on forwarding");
    }

    #[test]
    fn gre_encap_and_decap_roundtrip_with_keys() {
        // Encapsulating router.
        let mut a = router();
        let mut tun = TunnelConfig::gre(ip("204.9.168.1"), ip("204.9.169.1"));
        tun.okey = Some(2001);
        tun.ikey = Some(1001);
        tun.oseq = true;
        tun.iseq = true;
        tun.ocsum = true;
        tun.icsum = true;
        assert_eq!(a.config.add_tunnel(tun), 1);
        let t = RouteTableId(202);
        a.config.rib.table_mut(t).add(Route {
            dest: Ipv4Cidr::DEFAULT,
            target: crate::route::RouteTarget::Tunnel { tunnel: 1 },
        });
        a.config.rib.add_rule(crate::route::PolicyRule {
            priority: 100,
            selector: crate::route::RuleSelector::ToPrefix(cidr("10.0.2.0/24")),
            table: t,
        });
        a.config.rib.add_main(Route {
            dest: cidr("204.9.169.1/32"),
            target: crate::route::RouteTarget::Port {
                port: 1,
                via: Some(ip("204.9.168.2")),
            },
        });
        // Pre-resolve ARP so the tunnel packet leaves immediately.
        a.arp.insert(ip("204.9.168.2"), MacAddr::for_port(7, 7));

        let frame = EthernetFrame::new(
            a.port_mac(PortId(0)),
            MacAddr::for_port(9, 9),
            EtherType::Ipv4,
            udp_packet("10.0.1.5", "10.0.2.5", 592),
        );
        let out = handle(&mut a, PortId(0), &frame.encode());
        assert_eq!(out.len(), 1);
        let encap = EthernetFrame::decode(&out[0].1).unwrap();
        let summary = crate::trace::PacketSummary::parse(&out[0].1);
        assert_eq!(
            summary.protocol_path(),
            "ETH/IP(204.9.168.1->204.9.169.1 GRE)/GRE(key=2001)/IP(10.0.1.5->10.0.2.5 UDP)/payload[15]"
        );

        // Decapsulating router: its ikey must equal the sender's okey.
        let mut c = Device::new("C", DeviceRole::Router, 2);
        c.ports[0].link = Some(LinkId(0));
        c.ports[1].link = Some(LinkId(1));
        c.config.ip_forwarding = true;
        c.config.add_port_address(1, cidr("204.9.169.1/24"));
        c.config.add_port_address(0, cidr("10.0.2.1/24"));
        let mut tun = TunnelConfig::gre(ip("204.9.169.1"), ip("204.9.168.1"));
        tun.ikey = Some(2001);
        tun.okey = Some(1001);
        tun.iseq = true;
        tun.icsum = true;
        assert_eq!(c.config.add_tunnel(tun), 1);
        let t21 = RouteTableId(203);
        c.config.rib.table_mut(t21).add(Route {
            dest: Ipv4Cidr::DEFAULT,
            target: crate::route::RouteTarget::Port { port: 0, via: None },
        });
        c.config.rib.add_rule(crate::route::PolicyRule {
            priority: 100,
            selector: crate::route::RuleSelector::FromTunnel(1),
            table: t21,
        });
        c.arp.insert(ip("10.0.2.5"), MacAddr::for_port(5, 5));

        let arriving = EthernetFrame::new(
            c.port_mac(PortId(1)),
            encap.src,
            EtherType::Ipv4,
            encap.payload,
        );
        let out = handle(&mut c, PortId(1), &arriving.encode());
        assert_eq!(out.len(), 1);
        let final_frame = EthernetFrame::decode(&out[0].1).unwrap();
        let (h, _) = Ipv4Header::decode_packet(final_frame.payload).unwrap();
        assert_eq!(h.dst, ip("10.0.2.5"));
        assert_eq!(c.config.tunnel_counters(1).unwrap().rx_packets, 1);
    }

    /// Three GRE tunnels nested inside one another need more header room
    /// than a packet opens with: the frame still comes out whole, every
    /// checksum verifying.
    #[test]
    fn nested_tunnels_are_written_whole() {
        let mut a = router();
        let mut tunnel_to = |remote: &str, key: u32| {
            let mut tun = TunnelConfig::gre(ip("204.9.168.1"), ip(remote));
            tun.okey = Some(key);
            tun.ocsum = true;
            a.config.add_tunnel(tun)
        };
        let (t1, t2, t3) = (
            tunnel_to("1.0.0.1", 11),
            tunnel_to("2.0.0.1", 22),
            tunnel_to("3.0.0.1", 33),
        );
        for (dest, tunnel) in [("10.0.2.0/24", t1), ("1.0.0.1/32", t2), ("2.0.0.1/32", t3)] {
            a.config.rib.add_main(Route {
                dest: cidr(dest),
                target: crate::route::RouteTarget::Tunnel { tunnel },
            });
        }
        a.config.rib.add_main(Route {
            dest: cidr("3.0.0.1/32"),
            target: crate::route::RouteTarget::Port {
                port: 1,
                via: Some(ip("204.9.168.2")),
            },
        });
        a.arp.insert(ip("204.9.168.2"), MacAddr::for_port(7, 7));
        let frame = EthernetFrame::new(
            a.port_mac(PortId(0)),
            MacAddr::for_port(9, 9),
            EtherType::Ipv4,
            udp_packet("10.0.1.5", "10.0.2.5", 592),
        );
        let out = handle(&mut a, PortId(0), &frame.encode());
        assert_eq!(out.len(), 1);
        let summary = crate::trace::PacketSummary::parse(&out[0].1);
        assert_eq!(
            summary.protocol_path(),
            "ETH/IP(204.9.168.1->3.0.0.1 GRE)/GRE(key=33)\
             /IP(204.9.168.1->2.0.0.1 GRE)/GRE(key=22)\
             /IP(204.9.168.1->1.0.0.1 GRE)/GRE(key=11)\
             /IP(10.0.1.5->10.0.2.5 UDP)/payload[15]"
        );
        assert_eq!(a.stats.forwarded, 1);
    }

    /// A tunnel whose outer packet routes back into itself is a
    /// configuration loop: the packet is dropped once it nests too deep.
    #[test]
    fn a_tunnel_routed_into_itself_is_dropped() {
        let mut a = router();
        let tun = TunnelConfig::gre(ip("204.9.168.1"), ip("1.0.0.1"));
        let tunnel = a.config.add_tunnel(tun);
        for dest in ["10.0.2.0/24", "1.0.0.1/32"] {
            a.config.rib.add_main(Route {
                dest: cidr(dest),
                target: crate::route::RouteTarget::Tunnel { tunnel },
            });
        }
        let frame = EthernetFrame::new(
            a.port_mac(PortId(0)),
            MacAddr::for_port(9, 9),
            EtherType::Ipv4,
            udp_packet("10.0.1.5", "10.0.2.5", 592),
        );
        assert!(handle(&mut a, PortId(0), &frame.encode()).is_empty());
        assert_eq!(a.stats.drops[&DropReason::NoRoute], 1);
        assert_eq!(a.stats.forwarded, 0);
    }

    #[test]
    fn gre_key_mismatch_is_dropped() {
        let mut c = Device::new("C", DeviceRole::Router, 1);
        c.ports[0].link = Some(LinkId(0));
        c.config.add_port_address(0, cidr("204.9.169.1/24"));
        let mut tun = TunnelConfig::gre(ip("204.9.169.1"), ip("204.9.168.1"));
        tun.ikey = Some(7777); // expects a different key
        c.config.add_tunnel(tun);

        let inner = udp_packet("10.0.1.5", "10.0.2.5", 592);
        let gre = GreHeader::ipv4(Some(2001), None, false).encode_packet(&inner);
        let outer = Ipv4Header::new(ip("204.9.168.1"), ip("204.9.169.1"), Ipv4Proto::Gre)
            .encode_packet(&gre);
        let frame = EthernetFrame::new(
            c.port_mac(PortId(0)),
            MacAddr::for_port(9, 9),
            EtherType::Ipv4,
            outer,
        );
        handle(&mut c, PortId(0), &frame.encode());
        assert_eq!(c.stats.drops[&DropReason::TunnelMismatch], 1);
        assert!(c.take_delivered().is_empty());
    }

    /// The tunnel door's invariant at the engine: sequence state and counters
    /// die with their tunnel, so a tunnel added later under the same id
    /// accepts a peer that starts counting from 1 again.
    #[test]
    fn a_new_tunnel_does_not_inherit_a_removed_tunnels_sequence_state() {
        let mut c = Device::new("C", DeviceRole::Router, 1);
        c.ports[0].link = Some(LinkId(0));
        c.config.add_port_address(0, cidr("204.9.169.1/24"));
        let sequenced = || {
            let mut tun = TunnelConfig::gre(ip("204.9.169.1"), ip("204.9.168.1"));
            tun.iseq = true;
            tun
        };
        let arrive = |c: &mut Device, seq: u32| {
            let inner = udp_packet("10.0.1.5", "204.9.169.1", 592);
            let gre = GreHeader::ipv4(None, Some(seq), false).encode_packet(&inner);
            let outer = Ipv4Header::new(ip("204.9.168.1"), ip("204.9.169.1"), Ipv4Proto::Gre)
                .encode_packet(&gre);
            let frame = EthernetFrame::new(
                c.port_mac(PortId(0)),
                MacAddr::for_port(9, 9),
                EtherType::Ipv4,
                outer,
            );
            handle(c, PortId(0), &frame.encode());
            c.take_delivered().len()
        };

        assert_eq!(c.config.add_tunnel(sequenced()), 1);
        for seq in 1..=5 {
            assert_eq!(arrive(&mut c, seq), 1, "in-order packet {seq}");
        }
        assert_eq!(
            arrive(&mut c, 1),
            0,
            "a replayed sequence number is dropped"
        );
        let counters = c.config.tunnel_counters(1).unwrap();
        assert_eq!((counters.rx_packets, counters.drops), (5, 1));

        assert!(c.config.remove_tunnel(1).is_some());
        assert_eq!(
            c.config.tunnel_counters(1),
            None,
            "the counters went with it"
        );
        assert_eq!(c.config.add_tunnel(sequenced()), 1, "the id is reused");
        assert_eq!(arrive(&mut c, 1), 1, "the new tunnel's first packet");
        let counters = c.config.tunnel_counters(1).unwrap();
        assert_eq!((counters.rx_packets, counters.drops), (1, 0));

        // A reboot forgets sequence state but not the tunnel.
        assert_eq!(arrive(&mut c, 1), 0);
        c.flush_runtime_state();
        assert_eq!(arrive(&mut c, 1), 1);
    }

    #[test]
    fn filters_drop_matching_traffic() {
        let mut d = router();
        d.config.filters.push(FilterRule {
            id: 1,
            action: FilterAction::Drop,
            src: Some(cidr("10.0.1.0/24")),
            dst: None,
            proto: Some(Ipv4Proto::Udp),
            dst_port: Some(592),
        });
        let frame = EthernetFrame::new(
            d.port_mac(PortId(0)),
            MacAddr::for_port(9, 9),
            EtherType::Ipv4,
            udp_packet("10.0.1.5", "10.0.1.1", 592),
        );
        handle(&mut d, PortId(0), &frame.encode());
        assert!(d.take_delivered().is_empty());
        assert_eq!(d.stats.drops[&DropReason::Filtered], 1);
    }

    #[test]
    fn mpls_push_swap_pop() {
        use crate::mpls::{IlmEntry, Label, Nhlfe, NhlfeKey};
        // Ingress: route into an LSP with label 2001.
        let mut a = router();
        let key = NhlfeKey(1);
        a.config.mpls.add_nhlfe(Nhlfe {
            key,
            op: LabelOp::Push(Label::new(2001).unwrap()),
            nexthop: ip("204.9.168.2"),
            out_port: 1,
            mtu: 1500,
        });
        a.config.rib.add_main(Route {
            dest: cidr("10.0.2.0/24"),
            target: crate::route::RouteTarget::Mpls { nhlfe: key },
        });
        a.arp.insert(ip("204.9.168.2"), MacAddr::for_port(7, 7));
        let frame = EthernetFrame::new(
            a.port_mac(PortId(0)),
            MacAddr::for_port(9, 9),
            EtherType::Ipv4,
            udp_packet("10.0.1.5", "10.0.2.5", 592),
        );
        let out = handle(&mut a, PortId(0), &frame.encode());
        assert_eq!(out.len(), 1);
        let s = crate::trace::PacketSummary::parse(&out[0].1);
        assert_eq!(
            s.protocol_path(),
            "ETH/MPLS(2001)/IP(10.0.1.5->10.0.2.5 UDP)/payload[15]"
        );

        // Transit: swap 2001 -> 3001.
        let mut b = Device::new("B", DeviceRole::Router, 2);
        b.ports[0].link = Some(LinkId(0));
        b.ports[1].link = Some(LinkId(1));
        b.config.ip_forwarding = true;
        b.config.add_port_address(1, cidr("204.9.170.1/24"));
        let bkey = NhlfeKey(1);
        b.config.mpls.add_nhlfe(Nhlfe {
            key: bkey,
            op: LabelOp::Swap(Label::new(3001).unwrap()),
            nexthop: ip("204.9.170.2"),
            out_port: 1,
            mtu: 1500,
        });
        b.config.mpls.set_labelspace(0, 0);
        b.config.mpls.add_xc(
            IlmEntry {
                labelspace: 0,
                label: Label::new(2001).unwrap(),
            },
            bkey,
        );
        b.arp.insert(ip("204.9.170.2"), MacAddr::for_port(8, 8));
        let mpls_frame = EthernetFrame::decode(&out[0].1).unwrap();
        let arriving = EthernetFrame::new(
            b.port_mac(PortId(0)),
            mpls_frame.src,
            EtherType::Mpls,
            mpls_frame.payload,
        );
        let out_b = handle(&mut b, PortId(0), &arriving.encode());
        assert_eq!(out_b.len(), 1);
        let s = crate::trace::PacketSummary::parse(&out_b[0].1);
        assert!(matches!(s.layers[1], crate::trace::Layer::Mpls(3001)));

        // Egress: pop and deliver to the local IP stack for routing.
        let mut c = Device::new("C", DeviceRole::Router, 2);
        c.ports[0].link = Some(LinkId(0));
        c.ports[1].link = Some(LinkId(1));
        c.config.ip_forwarding = true;
        c.config.add_port_address(1, cidr("10.0.2.1/24"));
        let ckey = NhlfeKey(1);
        c.config.mpls.add_nhlfe(Nhlfe {
            key: ckey,
            op: LabelOp::Pop,
            nexthop: Ipv4Addr::UNSPECIFIED,
            out_port: 1,
            mtu: 1500,
        });
        c.config.mpls.add_xc(
            IlmEntry {
                labelspace: 0,
                label: Label::new(3001).unwrap(),
            },
            ckey,
        );
        c.config.rib.add_main(Route {
            dest: cidr("10.0.2.0/24"),
            target: crate::route::RouteTarget::Port { port: 1, via: None },
        });
        c.arp.insert(ip("10.0.2.5"), MacAddr::for_port(5, 5));
        let b_frame = EthernetFrame::decode(&out_b[0].1).unwrap();
        let arriving = EthernetFrame::new(
            c.port_mac(PortId(0)),
            b_frame.src,
            EtherType::Mpls,
            b_frame.payload,
        );
        let out_c = handle(&mut c, PortId(0), &arriving.encode());
        assert_eq!(out_c.len(), 1);
        let s = crate::trace::PacketSummary::parse(&out_c[0].1);
        assert_eq!(
            s.protocol_path(),
            "ETH/IP(10.0.1.5->10.0.2.5 UDP)/payload[15]"
        );
    }

    #[test]
    fn bridge_learns_and_floods_with_qinq() {
        use crate::vlan::VlanId;
        let mut sw = Device::new("SwitchA", DeviceRole::Switch, 3);
        for p in &mut sw.ports {
            p.link = Some(LinkId(p.index));
        }
        let mut bridge = crate::config::BridgeConfig::default();
        bridge.declare_vlan(VlanId::new(22).unwrap(), "C1", 1504);
        bridge.set_port(0, SwitchPortMode::Dot1qTunnel(VlanId::new(22).unwrap()));
        bridge.set_port(1, SwitchPortMode::Trunk(vec![VlanId::new(22).unwrap()]));
        bridge.set_port(2, SwitchPortMode::Access(VlanId::new(44).unwrap()));
        sw.config.bridge = Some(bridge);

        // Customer frame enters the dot1q-tunnel port: flooded only to ports
        // in VLAN 22 (port 1), tagged on the trunk.
        let customer = EthernetFrame::new(
            MacAddr::for_port(20, 0),
            MacAddr::for_port(10, 0),
            EtherType::Ipv4,
            vec![0u8; 64],
        );
        let out = handle(&mut sw, PortId(0), &customer.encode());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, PortId(1));
        let tagged = EthernetFrame::decode(&out[0].1).unwrap();
        assert_eq!(tagged.ethertype, EtherType::Vlan);
        let (tag, inner) = vlan::pop_tag(tagged.payload).unwrap();
        assert_eq!(tag.vid.value(), 22);
        assert_eq!(inner.len(), 64);

        // Return traffic on the trunk is learned and switched back untagged.
        let reply_inner = EthernetFrame::new(
            MacAddr::for_port(10, 0),
            MacAddr::for_port(20, 0),
            EtherType::Ipv4,
            vec![1u8; 64],
        );
        let reply_tagged = EthernetFrame::new(
            reply_inner.dst,
            reply_inner.src,
            EtherType::Vlan,
            vlan::push_tag(
                VlanId::new(22).unwrap(),
                EtherType::Ipv4,
                &reply_inner.payload,
            ),
        );
        let out = handle(&mut sw, PortId(1), &reply_tagged.encode());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, PortId(0));
        let untagged = EthernetFrame::decode(&out[0].1).unwrap();
        assert_eq!(untagged.ethertype, EtherType::Ipv4);
    }

    #[test]
    fn management_frames_are_queued_not_forwarded() {
        let mut sw = Device::new("SwitchA", DeviceRole::Switch, 2);
        sw.ports[0].link = Some(LinkId(0));
        sw.ports[1].link = Some(LinkId(1));
        sw.config.bridge = Some(crate::config::BridgeConfig::default());
        let frame = EthernetFrame::new(
            MacAddr::BROADCAST,
            MacAddr::for_port(1, 0),
            EtherType::Management,
            vec![1, 2, 3],
        );
        let out = handle(&mut sw, PortId(0), &frame.encode());
        assert!(out.is_empty());
        let frames = sw.take_mgmt_frames();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].payload, vec![1, 2, 3]);
        assert_eq!(frames[0].port, Some(PortId(0)));
    }
}

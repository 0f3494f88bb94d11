//! Device configuration.
//!
//! Everything that the paper's scripts configure — IP addresses, forwarding,
//! tunnels, MPLS tables, VLANs, policy routes, filters — lives in a
//! [`DeviceConfig`].  Both the CONMan modules (via the NM primitives) and the
//! legacy "today" script interpreters write into this structure; the
//! forwarding engine reads it.
//!
//! The tunnel table has one door: [`DeviceConfig::add_tunnel`] is its only
//! writer of ids and [`DeviceConfig::remove_tunnel`] its only delete.  What
//! the door guarantees is that **a tunnel's runtime state does not outlive
//! it and is never inherited by a later tunnel** — GRE sequence numbers and
//! interface counters are kept in the tunnel's own table entry, so removing
//! the tunnel removes them and a tunnel added later under the same id starts
//! from nothing.  The door also keeps the table's index of tunnel interface
//! addresses, which [`DeviceConfig::is_local_address`] reads for every
//! packet: nothing else writes a tunnel's configuration (the
//! `CorruptGreKey` fault rewrites keys only), so the index cannot fall
//! behind an `address`.

use crate::ipv4::{Ipv4Cidr, Ipv4Proto};
use crate::mpls::MplsTables;
use crate::route::Rib;
use crate::stats::IfaceCounters;
use crate::vlan::VlanId;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// Configuration of one GRE (or IP-IP) tunnel endpoint, mirroring the
/// arguments of `ip tunnel add` in Figure 7(a).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TunnelConfig {
    /// Device-local tunnel identifier, assigned by
    /// [`DeviceConfig::add_tunnel`] (0 until then).
    pub id: u32,
    /// Tunnel mode.
    pub mode: TunnelMode,
    /// Local (outer source) address.
    pub local: Ipv4Addr,
    /// Remote (outer destination) address.
    pub remote: Ipv4Addr,
    /// GRE key expected on received packets (`ikey`).
    pub ikey: Option<u32>,
    /// GRE key stamped on transmitted packets (`okey`).
    pub okey: Option<u32>,
    /// Verify checksums on receive (`icsum`).
    pub icsum: bool,
    /// Add checksums on transmit (`ocsum`).
    pub ocsum: bool,
    /// Require in-order sequence numbers on receive (`iseq`).
    pub iseq: bool,
    /// Stamp sequence numbers on transmit (`oseq`).
    pub oseq: bool,
    /// Outer TTL.
    pub ttl: u8,
    /// Address assigned to the tunnel interface (`ifconfig greA ...`).
    pub address: Option<Ipv4Cidr>,
}

/// Tunnel encapsulation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TunnelMode {
    /// GRE over IPv4 (`mode gre`).
    Gre,
    /// Plain IP-in-IP (`mode ipip`).
    IpIp,
}

impl TunnelConfig {
    /// A plain GRE tunnel with no options, the starting point the CONMan GRE
    /// module then refines through peer negotiation.
    pub fn gre(local: Ipv4Addr, remote: Ipv4Addr) -> Self {
        TunnelConfig {
            id: 0,
            mode: TunnelMode::Gre,
            local,
            remote,
            ikey: None,
            okey: None,
            icsum: false,
            ocsum: false,
            iseq: false,
            oseq: false,
            ttl: 64,
            address: None,
        }
    }

    /// A plain IP-IP tunnel.
    pub fn ipip(local: Ipv4Addr, remote: Ipv4Addr) -> Self {
        TunnelConfig {
            mode: TunnelMode::IpIp,
            ..TunnelConfig::gre(local, remote)
        }
    }
}

/// One row of the tunnel table: a tunnel's configuration together with the
/// runtime state that exists only because the tunnel does.  The runtime
/// half is neither compared nor handed out with the configuration, so
/// configurations compare equal whatever traffic has flowed.
#[derive(Debug, Clone)]
struct TunnelEntry {
    /// Read-only outside this module, so that the address index cannot
    /// fall behind a tunnel's `address`.
    config: TunnelConfig,
    state: TunnelState,
}

/// The runtime half of a tunnel's entry, which the engine writes.
#[derive(Debug, Clone, Default)]
pub(crate) struct TunnelState {
    /// Last GRE sequence number stamped on a transmitted packet (`oseq`).
    pub(crate) tx_seq: u32,
    /// Highest GRE sequence number accepted on receive (`iseq`); 0 before
    /// the first packet.
    pub(crate) rx_seq: u32,
    /// Packets through the tunnel interface.
    pub(crate) counters: IfaceCounters,
}

impl TunnelEntry {
    /// A tunnel nothing has crossed yet.
    fn new(config: TunnelConfig) -> Self {
        TunnelEntry {
            config,
            state: TunnelState::default(),
        }
    }

    /// The configuration to read, the runtime state to write.
    fn split(&mut self) -> (&TunnelConfig, &mut TunnelState) {
        (&self.config, &mut self.state)
    }
}

impl PartialEq for TunnelEntry {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
    }
}

/// The tunnel table: entries keyed by id, and beside them a counted index
/// of their interface addresses — every `address` some tunnel carries,
/// sorted, once per tunnel carrying it.  Only the entries are content: the
/// index is not compared.
#[derive(Debug, Clone, Default)]
struct TunnelTable {
    entries: BTreeMap<u32, TunnelEntry>,
    addresses: Vec<Ipv4Addr>,
}

impl TunnelTable {
    /// Insert `entry` under `id`, indexing its address.
    fn insert(&mut self, id: u32, entry: TunnelEntry) {
        if let Some(c) = entry.config.address {
            let at = self.addresses.partition_point(|a| *a <= c.addr);
            self.addresses.insert(at, c.addr);
        }
        self.entries.insert(id, entry);
    }

    /// Remove the entry under `id` and its address from the index.
    fn remove(&mut self, id: u32) -> Option<TunnelEntry> {
        let entry = self.entries.remove(&id)?;
        if let Some(c) = entry.config.address {
            let at = self.addresses.binary_search(&c.addr);
            self.addresses
                .remove(at.expect("every tunnel address is indexed"));
        }
        Some(entry)
    }

    /// Does some tunnel carry `addr`?  Adds the index entries the binary
    /// search compared to `probes`.
    fn carries(&self, addr: Ipv4Addr, probes: &mut u64) -> bool {
        let at = self.addresses.partition_point(|a| {
            *probes += 1;
            *a < addr
        });
        self.addresses.get(at) == Some(&addr)
    }
}

impl PartialEq for TunnelTable {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

/// How a switch port participates in VLANs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwitchPortMode {
    /// Untagged access port in a single VLAN.
    Access(VlanId),
    /// 802.1Q tunnel (Q-in-Q) access port: customer frames (tagged or not)
    /// get an additional provider tag — `switchport mode dot1q-tunnel`.
    Dot1qTunnel(VlanId),
    /// Trunk port carrying the listed VLANs with tags.
    Trunk(Vec<VlanId>),
}

/// Per-VLAN metadata (`set vlan 22 name C1 mtu 1504`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VlanConfig {
    /// VLAN name.
    pub name: String,
    /// MTU configured for the VLAN (needs 4 extra bytes for Q-in-Q).
    pub mtu: u16,
}

/// Layer-2 bridging configuration of a switch device.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BridgeConfig {
    /// Port modes keyed by port index.
    pub ports: BTreeMap<u32, SwitchPortMode>,
    /// Declared VLANs.
    pub vlans: BTreeMap<u16, VlanConfig>,
}

impl BridgeConfig {
    /// Declare a VLAN.
    pub fn declare_vlan(&mut self, vid: VlanId, name: impl Into<String>, mtu: u16) {
        self.vlans.insert(
            vid.value(),
            VlanConfig {
                name: name.into(),
                mtu,
            },
        );
    }

    /// Configure a port's mode.
    pub fn set_port(&mut self, port: u32, mode: SwitchPortMode) {
        self.ports.insert(port, mode);
    }
}

/// Action of a filter rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterAction {
    /// Silently drop matching packets.
    Drop,
    /// Explicitly allow matching packets (overrides later drops).
    Allow,
}

/// A low-level filter rule.  The CONMan filter abstraction ("drop packets
/// from module X to module Y") is resolved by modules into these concrete
/// field matches via `listFieldsAndValues` (§II-E).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterRule {
    /// Rule identifier (used for delete).
    pub id: u32,
    /// Drop or allow.
    pub action: FilterAction,
    /// Source prefix to match, if any.
    pub src: Option<Ipv4Cidr>,
    /// Destination prefix to match, if any.
    pub dst: Option<Ipv4Cidr>,
    /// Protocol to match, if any.
    pub proto: Option<Ipv4Proto>,
    /// Destination transport port to match, if any (UDP only).
    pub dst_port: Option<u16>,
}

impl FilterRule {
    /// Does this rule match the given packet fields?
    pub fn matches(
        &self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        proto: Ipv4Proto,
        dst_port: Option<u16>,
    ) -> bool {
        self.src.is_none_or(|p| p.contains(src))
            && self.dst.is_none_or(|p| p.contains(dst))
            && self.proto.is_none_or(|p| p == proto)
            && match (self.dst_port, dst_port) {
                (None, _) => true,
                (Some(want), Some(got)) => want == got,
                (Some(_), None) => false,
            }
    }
}

/// Complete configuration of a simulated device.  Two configurations are
/// equal when their content is: no index and no tunnel's runtime state
/// takes part.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceConfig {
    /// Is IPv4 forwarding enabled (`echo 1 > /proc/sys/net/ipv4/ip_forward`)?
    pub ip_forwarding: bool,
    /// IPv4 addresses assigned per port.  Private so that
    /// [`Self::add_port_address`] is the only writer and
    /// `port_address_set` cannot fall behind.
    port_addresses: BTreeMap<u32, Vec<Ipv4Cidr>>,
    /// Every address in `port_addresses`: a fan-out edge router holds one
    /// per customer port and asks "is this mine?" for every packet.
    port_address_set: BTreeSet<Ipv4Addr>,
    /// Routing information base (tables + policy rules).
    pub rib: Rib,
    /// Configured tunnels keyed by tunnel id, with their address index.
    /// Private: see the module documentation for the invariants its
    /// methods keep.
    tunnels: TunnelTable,
    /// MPLS label-switching state.
    pub mpls: MplsTables,
    /// Layer-2 bridge configuration (switches only).
    pub bridge: Option<BridgeConfig>,
    /// Packet filters evaluated on forwarding and local delivery.
    pub filters: Vec<FilterRule>,
    /// UDP ports delivered locally to an application sink.
    pub local_udp_ports: Vec<u16>,
}

impl DeviceConfig {
    /// A blank configuration with an empty main routing table.
    pub fn new() -> Self {
        DeviceConfig {
            rib: Rib::new(),
            ..Default::default()
        }
    }

    /// Drop the route tables, the policy rules and the tunnels one at a
    /// time, calling `dropped` with each part's name just after it is
    /// freed, so a heap census can split what a device holds.  Not for
    /// configuring a device: it leaves the configuration without even a
    /// main table.
    #[doc(hidden)]
    pub fn drop_parts(&mut self, dropped: &mut dyn FnMut(std::fmt::Arguments)) {
        self.rib.drop_parts(dropped);
        drop(std::mem::take(&mut self.tunnels));
        dropped(format_args!("tunnels"));
    }

    /// Assign an address to a port.
    pub(crate) fn add_port_address(&mut self, port: u32, addr: Ipv4Cidr) {
        self.port_addresses.entry(port).or_default().push(addr);
        self.port_address_set.insert(addr.addr);
    }

    /// Assign an address to a port and install the corresponding connected
    /// route in the main table (what `ifconfig`/`ip addr add` does on Linux).
    pub fn assign_address(&mut self, port: u32, addr: Ipv4Cidr) {
        self.add_port_address(port, addr);
        self.rib.add_main(crate::route::Route {
            dest: Ipv4Cidr::new(addr.network(), addr.prefix_len),
            target: crate::route::RouteTarget::Port { port, via: None },
        });
    }

    /// All addresses assigned to the device (ports first, then tunnels).
    pub(crate) fn local_addresses(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        let ports = self.port_addresses.values().flatten();
        let tunnels = self.tunnels().filter_map(|t| t.address.as_ref());
        ports.chain(tunnels).map(|c| c.addr)
    }

    /// Is `addr` one of this device's local addresses?  The engine asks for
    /// every packet and every ARP request it handles.
    pub fn is_local_address(&self, addr: Ipv4Addr) -> bool {
        self.is_local_address_counting(addr, &mut 0)
    }

    /// [`Self::is_local_address`]: two set lookups, adding the tunnel
    /// addresses the second compared to `probes`.
    pub(crate) fn is_local_address_counting(&self, addr: Ipv4Addr, probes: &mut u64) -> bool {
        self.port_address_set.contains(&addr) || self.tunnels.carries(addr, probes)
    }

    /// The port (and its prefix) whose subnet contains `addr`, if any.
    pub(crate) fn port_for_subnet(&self, addr: Ipv4Addr) -> Option<(u32, Ipv4Cidr)> {
        for (port, cidrs) in &self.port_addresses {
            for c in cidrs {
                if c.contains(addr) {
                    return Some((*port, *c));
                }
            }
        }
        None
    }

    /// The address assigned to a port within the given subnet, used as the
    /// source of locally originated packets.
    pub fn address_on_port(&self, port: u32) -> Option<Ipv4Cidr> {
        self.port_addresses
            .get(&port)
            .and_then(|v| v.first())
            .copied()
    }

    /// Evaluate filters: `true` means the packet may proceed.
    pub(crate) fn filters_allow(
        &self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        proto: Ipv4Proto,
        dst_port: Option<u16>,
    ) -> bool {
        for rule in &self.filters {
            if rule.matches(src, dst, proto, dst_port) {
                return match rule.action {
                    FilterAction::Allow => true,
                    FilterAction::Drop => false,
                };
            }
        }
        true
    }

    /// Add a tunnel, giving it the device's next free id (one more than the
    /// highest id in use), which is written into `tunnel.id` and returned.
    /// The new tunnel starts with no sequence state and zero counters even
    /// when an earlier tunnel held the same id.
    pub fn add_tunnel(&mut self, mut tunnel: TunnelConfig) -> u32 {
        let last = self.tunnels.entries.last_key_value();
        let id = last.map_or(1, |(max, _)| max + 1);
        tunnel.id = id;
        self.tunnels.insert(id, TunnelEntry::new(tunnel));
        id
    }

    /// Remove a tunnel and, with it, its sequence state and counters.
    pub fn remove_tunnel(&mut self, id: u32) -> Option<TunnelConfig> {
        self.tunnels.remove(id).map(|e| e.config)
    }

    /// The configuration of one tunnel.
    pub fn tunnel(&self, id: u32) -> Option<&TunnelConfig> {
        self.tunnels.entries.get(&id).map(|e| &e.config)
    }

    /// Every configured tunnel, in id order.
    pub fn tunnels(&self) -> impl Iterator<Item = &TunnelConfig> {
        self.tunnels.entries.values().map(|e| &e.config)
    }

    /// Add `delta` (wrapping) to every tunnel's expected GRE key, leaving
    /// tunnels without one alone: the `CorruptGreKey` fault, and the only
    /// write to a tunnel's configuration after `add_tunnel`.
    pub(crate) fn corrupt_ikeys(&mut self, delta: u32) {
        for e in self.tunnels.entries.values_mut() {
            if let Some(ikey) = e.config.ikey.as_mut() {
                *ikey = ikey.wrapping_add(delta);
            }
        }
    }

    /// Packets received, transmitted and dropped on one tunnel since it was
    /// added; `None` once the tunnel is gone.
    pub fn tunnel_counters(&self, id: u32) -> Option<IfaceCounters> {
        self.tunnels.entries.get(&id).map(|e| e.state.counters)
    }

    /// One tunnel's configuration and runtime state (the engine's
    /// encapsulation path).
    pub(crate) fn tunnel_state_mut(
        &mut self,
        id: u32,
    ) -> Option<(&TunnelConfig, &mut TunnelState)> {
        self.tunnels.entries.get_mut(&id).map(TunnelEntry::split)
    }

    /// Find the tunnel whose outer addresses match a received, decapsulatable
    /// packet (remote is the packet's source, local is its destination), and
    /// whose key expectation matches.
    pub(crate) fn tunnel_for_incoming(
        &mut self,
        outer_src: Ipv4Addr,
        outer_dst: Ipv4Addr,
        key: Option<u32>,
        mode: TunnelMode,
    ) -> Option<(u32, &TunnelConfig, &mut TunnelState)> {
        self.tunnels
            .entries
            .iter_mut()
            .find(|(_, e)| {
                let t = &e.config;
                t.mode == mode && t.remote == outer_src && t.local == outer_dst && t.ikey == key
            })
            .map(|(id, e)| {
                let (config, state) = e.split();
                (*id, config, state)
            })
    }

    /// Forget every tunnel's sequence state, as a reboot does.
    pub(crate) fn reset_tunnel_sequences(&mut self) {
        for e in self.tunnels.entries.values_mut() {
            e.state.tx_seq = 0;
            e.state.rx_seq = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::route::{PolicyRule, Route, RouteTableId, RouteTarget, RuleSelector};

    fn cidr(s: &str) -> Ipv4Cidr {
        s.parse().unwrap()
    }

    /// A configuration is its content: what it was told, in whatever order,
    /// and not what traffic has done to its tunnels since.
    #[test]
    fn configurations_are_equal_when_their_content_is() {
        let tunnel = |addr: &str| {
            let mut t = TunnelConfig::gre(
                "204.9.168.1".parse().unwrap(),
                "204.9.169.1".parse().unwrap(),
            );
            t.ikey = Some(1001);
            t.address = Some(cidr(addr));
            t
        };
        let rule = |priority, to: &str, table| PolicyRule {
            priority,
            selector: RuleSelector::ToPrefix(cidr(to)),
            table: RouteTableId(table),
        };
        let route = |dest: &str, port| Route {
            dest: cidr(dest),
            target: RouteTarget::Port { port, via: None },
        };
        let table = RouteTableId(200);

        let mut a = DeviceConfig::new();
        a.assign_address(0, cidr("10.0.1.1/24"));
        a.assign_address(1, cidr("10.0.2.1/24"));
        a.add_tunnel(tunnel("192.168.3.2/24"));
        a.add_tunnel(tunnel("192.168.3.1/24"));
        a.rib.add_rule(rule(10, "10.9.0.0/16", 200));
        a.rib.add_rule(rule(20, "10.8.0.0/16", 201));
        a.rib.table_mut(table).add(route("10.9.1.0/24", 0));
        a.rib.table_mut(table).add(route("10.9.0.0/16", 1));

        // The same content in another order, and a tunnel that came and
        // went: every index was built along another way.
        let mut b = DeviceConfig::new();
        b.rib.table_mut(table).add(route("10.9.0.0/16", 1));
        b.rib.add_rule(rule(20, "10.8.0.0/16", 201));
        b.add_tunnel(tunnel("192.168.3.2/24"));
        let gone = b.add_tunnel(tunnel("192.168.3.9/24"));
        b.remove_tunnel(gone);
        b.assign_address(1, cidr("10.0.2.1/24"));
        b.rib.table_mut(table).add(route("10.9.1.0/24", 0));
        b.add_tunnel(tunnel("192.168.3.1/24"));
        b.rib.add_rule(rule(10, "10.9.0.0/16", 200));
        b.assign_address(0, cidr("10.0.1.1/24"));
        assert_eq!(a, b, "indexes are not content");

        let mut used = a.clone();
        let (_, state) = used.tunnel_state_mut(1).expect("tunnel 1");
        state.tx_seq = 7;
        state.rx_seq = 3;
        state.counters.tx(100);
        state.counters.rx(100);
        assert_eq!(used, a, "runtime state is not content");

        let mut key = a.clone();
        key.corrupt_ikeys(1);
        assert_ne!(key, a, "a tunnel key is content");
        let mut moved = a.clone();
        moved.rib.table_mut(table).add(route("10.9.1.0/24", 1));
        assert_ne!(moved, a, "a route is content");
        let mut watermark = a.clone();
        watermark.mpls.alloc_key();
        assert_ne!(watermark, a, "the MPLS key watermark is content");
    }

    #[test]
    fn local_addresses_include_tunnels() {
        let mut cfg = DeviceConfig::new();
        cfg.add_port_address(0, cidr("10.0.1.1/24"));
        let mut t = TunnelConfig::gre(
            "204.9.168.1".parse().unwrap(),
            "204.9.169.1".parse().unwrap(),
        );
        t.address = Some(cidr("192.168.3.1/24"));
        cfg.add_tunnel(t);
        assert!(cfg.is_local_address("10.0.1.1".parse().unwrap()));
        assert!(cfg.is_local_address("192.168.3.1".parse().unwrap()));
        assert!(!cfg.is_local_address("10.0.1.2".parse().unwrap()));
        assert_eq!(
            cfg.port_for_subnet("10.0.1.200".parse().unwrap()),
            Some((0, cidr("10.0.1.1/24")))
        );
    }

    #[test]
    fn tunnel_ids_are_one_past_the_highest_in_use() {
        let tun = || TunnelConfig::gre(Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED);
        let mut cfg = DeviceConfig::new();
        assert_eq!(cfg.add_tunnel(tun()), 1);
        assert_eq!(cfg.add_tunnel(tun()), 2);
        assert_eq!(cfg.tunnel(2).map(|t| t.id), Some(2));
        assert!(cfg.remove_tunnel(1).is_some());
        assert_eq!(
            cfg.add_tunnel(tun()),
            3,
            "a hole below the top is not refilled"
        );
        assert!(cfg.remove_tunnel(3).is_some());
        assert_eq!(
            cfg.add_tunnel(tun()),
            3,
            "the top id is reused once it is free"
        );
        assert_eq!(cfg.tunnels().map(|t| t.id).collect::<Vec<_>>(), [2, 3]);
        assert!(cfg.remove_tunnel(7).is_none());
    }

    #[test]
    fn filter_rules_first_match_wins() {
        let mut cfg = DeviceConfig::new();
        cfg.filters.push(FilterRule {
            id: 1,
            action: FilterAction::Allow,
            src: Some(cidr("10.0.1.0/24")),
            dst: None,
            proto: None,
            dst_port: None,
        });
        cfg.filters.push(FilterRule {
            id: 2,
            action: FilterAction::Drop,
            src: None,
            dst: Some(cidr("10.0.2.0/24")),
            proto: None,
            dst_port: None,
        });
        // Allowed by rule 1 even though rule 2 would drop.
        assert!(cfg.filters_allow(
            "10.0.1.5".parse().unwrap(),
            "10.0.2.5".parse().unwrap(),
            Ipv4Proto::Udp,
            Some(592)
        ));
        // Dropped by rule 2.
        assert!(!cfg.filters_allow(
            "172.16.0.1".parse().unwrap(),
            "10.0.2.5".parse().unwrap(),
            Ipv4Proto::Udp,
            None
        ));
        // No rule matches: allowed.
        assert!(cfg.filters_allow(
            "172.16.0.1".parse().unwrap(),
            "172.16.0.2".parse().unwrap(),
            Ipv4Proto::Icmp,
            None
        ));
    }

    #[test]
    fn filter_port_matching() {
        let rule = FilterRule {
            id: 1,
            action: FilterAction::Drop,
            src: None,
            dst: None,
            proto: Some(Ipv4Proto::Udp),
            dst_port: Some(592),
        };
        assert!(rule.matches(
            "1.1.1.1".parse().unwrap(),
            "2.2.2.2".parse().unwrap(),
            Ipv4Proto::Udp,
            Some(592)
        ));
        assert!(!rule.matches(
            "1.1.1.1".parse().unwrap(),
            "2.2.2.2".parse().unwrap(),
            Ipv4Proto::Udp,
            Some(80)
        ));
        assert!(!rule.matches(
            "1.1.1.1".parse().unwrap(),
            "2.2.2.2".parse().unwrap(),
            Ipv4Proto::Udp,
            None
        ));
    }

    #[test]
    fn tunnel_matching_checks_keys() {
        let mut cfg = DeviceConfig::new();
        let mut t = TunnelConfig::gre(
            "204.9.169.1".parse().unwrap(),
            "204.9.168.1".parse().unwrap(),
        );
        t.ikey = Some(1001);
        cfg.add_tunnel(t);
        // Incoming packet: outer src = remote end, outer dst = our local.
        assert!(cfg
            .tunnel_for_incoming(
                "204.9.168.1".parse().unwrap(),
                "204.9.169.1".parse().unwrap(),
                Some(1001),
                TunnelMode::Gre
            )
            .is_some());
        // Wrong key -> no match (the classic misconfiguration the paper cites).
        assert!(cfg
            .tunnel_for_incoming(
                "204.9.168.1".parse().unwrap(),
                "204.9.169.1".parse().unwrap(),
                Some(9999),
                TunnelMode::Gre
            )
            .is_none());
    }
}

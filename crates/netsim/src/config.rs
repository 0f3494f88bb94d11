//! Device configuration.
//!
//! Everything that the paper's scripts configure — IP addresses, forwarding,
//! tunnels, MPLS tables, VLANs, policy routes, filters — lives in a
//! [`DeviceConfig`].  Both the CONMan modules (via the NM primitives) and the
//! legacy "today" script interpreters write into this structure; the
//! forwarding engine reads it.

use crate::ipv4::{Ipv4Cidr, Ipv4Proto};
use crate::mpls::MplsTables;
use crate::route::Rib;
use crate::vlan::VlanId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// Configuration of one GRE (or IP-IP) tunnel endpoint, mirroring the
/// arguments of `ip tunnel add` in Figure 7(a).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TunnelConfig {
    /// Device-local tunnel identifier.
    pub id: u32,
    /// Interface name shown in generated scripts (e.g. `greA`, `gre-P1-P2`).
    pub name: String,
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TunnelMode {
    /// GRE over IPv4 (`mode gre`).
    Gre,
    /// Plain IP-in-IP (`mode ipip`).
    IpIp,
}

impl TunnelConfig {
    /// A plain GRE tunnel with no options, the starting point the CONMan GRE
    /// module then refines through peer negotiation.
    pub fn gre(id: u32, name: impl Into<String>, local: Ipv4Addr, remote: Ipv4Addr) -> Self {
        TunnelConfig {
            id,
            name: name.into(),
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
    pub fn ipip(id: u32, name: impl Into<String>, local: Ipv4Addr, remote: Ipv4Addr) -> Self {
        TunnelConfig {
            mode: TunnelMode::IpIp,
            ..TunnelConfig::gre(id, name, local, remote)
        }
    }
}

/// How a switch port participates in VLANs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VlanConfig {
    /// VLAN name.
    pub name: String,
    /// MTU configured for the VLAN (needs 4 extra bytes for Q-in-Q).
    pub mtu: u16,
}

/// Layer-2 bridging configuration of a switch device.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FilterAction {
    /// Silently drop matching packets.
    Drop,
    /// Explicitly allow matching packets (overrides later drops).
    Allow,
}

/// A low-level filter rule.  The CONMan filter abstraction ("drop packets
/// from module X to module Y") is resolved by modules into these concrete
/// field matches via `listFieldsAndValues` (§II-E).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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

/// Complete configuration of a simulated device.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
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
    /// Configured tunnels keyed by tunnel id.
    pub tunnels: BTreeMap<u32, TunnelConfig>,
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

    /// Assign an address to a port.
    pub fn add_port_address(&mut self, port: u32, addr: Ipv4Cidr) {
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
    pub fn local_addresses(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        let ports = self.port_addresses.values().flatten();
        let tunnels = self.tunnels.values().filter_map(|t| t.address.as_ref());
        ports.chain(tunnels).map(|c| c.addr)
    }

    /// Is `addr` one of this device's local addresses?
    pub fn is_local_address(&self, addr: Ipv4Addr) -> bool {
        self.port_address_set.contains(&addr)
            || self
                .tunnels
                .values()
                .any(|t| t.address.is_some_and(|c| c.addr == addr))
    }

    /// The port (and its prefix) whose subnet contains `addr`, if any.
    pub fn port_for_subnet(&self, addr: Ipv4Addr) -> Option<(u32, Ipv4Cidr)> {
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
    pub fn filters_allow(
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

    /// Find a tunnel whose outer addresses match a received, decapsulatable
    /// packet (remote is the packet's source, local is its destination), and
    /// whose key expectation matches.
    pub fn tunnel_for_incoming(
        &self,
        outer_src: Ipv4Addr,
        outer_dst: Ipv4Addr,
        key: Option<u32>,
        mode: TunnelMode,
    ) -> Option<&TunnelConfig> {
        self.tunnels.values().find(|t| {
            t.mode == mode && t.remote == outer_src && t.local == outer_dst && t.ikey == key
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cidr(s: &str) -> Ipv4Cidr {
        s.parse().unwrap()
    }

    #[test]
    fn local_addresses_include_tunnels() {
        let mut cfg = DeviceConfig::new();
        cfg.add_port_address(0, cidr("10.0.1.1/24"));
        let mut t = TunnelConfig::gre(
            1,
            "greA",
            "204.9.168.1".parse().unwrap(),
            "204.9.169.1".parse().unwrap(),
        );
        t.address = Some(cidr("192.168.3.1/24"));
        cfg.tunnels.insert(1, t);
        assert!(cfg.is_local_address("10.0.1.1".parse().unwrap()));
        assert!(cfg.is_local_address("192.168.3.1".parse().unwrap()));
        assert!(!cfg.is_local_address("10.0.1.2".parse().unwrap()));
        assert_eq!(
            cfg.port_for_subnet("10.0.1.200".parse().unwrap()),
            Some((0, cidr("10.0.1.1/24")))
        );
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
            1,
            "greA",
            "204.9.169.1".parse().unwrap(),
            "204.9.168.1".parse().unwrap(),
        );
        t.ikey = Some(1001);
        cfg.tunnels.insert(1, t);
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

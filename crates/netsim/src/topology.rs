//! Canned topologies used by the experiments, including the paper's Figure 4
//! VPN testbed (two customer sites connected across a three-router ISP) and
//! the Figure 2 GRE-tunnel setup, plus parameterised chains for the scaling
//! benchmarks (Table VI sweeps `n`, the number of routers along the path).

use crate::config::{BridgeConfig, SwitchPortMode};
use crate::device::{Device, DeviceId, DeviceRole, PortId};
use crate::ipv4::Ipv4Cidr;
use crate::link::LinkProperties;
use crate::network::Network;
use crate::route::{Route, RouteTarget};
use crate::vlan::VlanId;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

fn cidr(s: &str) -> Ipv4Cidr {
    s.parse().expect("valid CIDR literal")
}

fn ip(s: &str) -> Ipv4Addr {
    s.parse().expect("valid IPv4 literal")
}

/// A layer-2 switch whose ports all start in VLAN 1 access mode (an
/// unconfigured switch that floods everything, like a fresh device).
pub(crate) fn basic_switch(name: &str, num_ports: u32) -> Device {
    let mut d = Device::new(name, DeviceRole::Switch, num_ports);
    let mut bridge = BridgeConfig::default();
    bridge.declare_vlan(VlanId::new(1).unwrap(), "default", 1504);
    for p in 0..num_ports {
        bridge.set_port(p, SwitchPortMode::Access(VlanId::new(1).unwrap()));
    }
    d.config.bridge = Some(bridge);
    d
}

/// The ISP chain topology of Section III-C generalised to `n` core routers.
///
/// ```text
/// host1 -- D -- R1 -- R2 -- ... -- Rn -- E -- host2
///          (customer 1, site 1)          (customer 1, site 2)
/// ```
///
/// `n = 3` reproduces Figure 4 exactly (R1 = RouterA, R2 = RouterB,
/// R3 = RouterC).  The ISP routers have forwarding enabled and connected
/// routes only: the VPN path itself (tunnels, LSPs, customer routes) is what
/// the NM or the legacy scripts configure.
#[derive(Debug)]
pub struct ChainTopology {
    /// The network.
    pub net: Network,
    /// Host in customer site 1 (10.0.1.5).
    pub host1: DeviceId,
    /// Customer router at site 1 (Router D in the paper).
    pub customer1: DeviceId,
    /// ISP core routers in path order (Routers A, B, C for n = 3).
    pub core: Vec<DeviceId>,
    /// Customer router at site 2 (Router E in the paper).
    pub customer2: DeviceId,
    /// Host in customer site 2 (10.0.2.5).
    pub host2: DeviceId,
    /// The ISP-internal address of each core router on the link towards the
    /// *next* core router (used by configuration generators).
    pub core_link_addresses: Vec<(Ipv4Addr, Ipv4Addr)>,
    /// Second customer pair, present on dual-customer chains
    /// ([`isp_chain_dual`]): a host in the 10.0.3.0/24 LAN behind the site-1
    /// customer router and one in 10.0.4.0/24 behind the site-2 router.
    pub second_pair: Option<(DeviceId, DeviceId)>,
    /// Fan-out customer pairs ([`isp_chain_fanout`]): one `(site-1 host,
    /// site-2 host)` pair per entry, each on its own LAN behind the shared
    /// customer routers (subnets from [`fanout_pair_subnets`]).  Empty on
    /// plain and dual chains.
    pub fanout_pairs: Vec<(DeviceId, DeviceId)>,
}

/// The `(site-1, site-2)` /24 subnets of fan-out customer pair `k`
/// (0-based).  The scheme keeps clear of the first customer's 10.0.x.0/24
/// LANs and the 192.168.x / 204.9.x ISP addressing, and scales past 256
/// pairs without overflowing an octet.
pub fn fanout_pair_subnets(k: usize) -> (Ipv4Cidr, Ipv4Cidr) {
    let x = 1 + k / 64;
    let y = (k % 64) * 4;
    assert!(x <= 255, "fan-out pair index out of addressing range");
    (
        Ipv4Cidr::new(Ipv4Addr::new(10, x as u8, y as u8, 0), 24),
        Ipv4Cidr::new(Ipv4Addr::new(10, x as u8, (y + 1) as u8, 0), 24),
    )
}

/// The `(site-1, site-2)` host addresses of fan-out pair `k` (the `.5`
/// address of each subnet of [`fanout_pair_subnets`]).
pub fn fanout_pair_hosts(k: usize) -> (Ipv4Addr, Ipv4Addr) {
    let (s1, s2) = fanout_pair_subnets(k);
    let host = |c: Ipv4Cidr| -> Ipv4Addr {
        let base: u32 = c.network().into();
        Ipv4Addr::from(base + 5)
    };
    (host(s1), host(s2))
}

/// Build the ISP chain with `n >= 2` core routers.  Core routers are named
/// `RouterA`, `RouterB`, ... (wrapping to `Router<k>` beyond 26).
pub fn isp_chain(n: usize) -> ChainTopology {
    build_isp_chain(n, false, 0)
}

/// Build the ISP chain with a *second* customer pair: each customer router
/// gets an extra LAN (10.0.3.0/24 at site 1, 10.0.4.0/24 at site 2) with one
/// host.  The second pair shares the customer routers, uplinks and ISP core
/// with the first, which is exactly the multi-goal scenario: two VPN goals
/// between the same customer-facing interfaces for different site classes.
pub fn isp_chain_dual(n: usize) -> ChainTopology {
    build_isp_chain(n, true, 0)
}

/// Build the ISP chain with `pairs` fan-out customer pairs: each customer
/// router grows one extra LAN per pair (subnets from
/// [`fanout_pair_subnets`]) with a single host in it.  Every pair shares
/// the customer routers, uplinks and ISP core — the data-plane substrate
/// for running *hundreds* of concurrent VPN goals with real end-to-end
/// traffic, which the autonomic control loop's per-goal health probes and
/// flow-attributed diagnosis need.
pub fn isp_chain_fanout(n: usize, pairs: usize) -> ChainTopology {
    build_isp_chain(n, false, pairs)
}

/// Build customer site 1 (one host in 10.0.1.0/24 behind router D, which
/// uplinks towards the ISP ingress at 192.168.0.2), with the extra LANs a
/// dual or fan-out variant asks for.  Returns `(host1, customer1)`.
fn build_site1(net: &mut Network, dual: bool, fanout: usize) -> (DeviceId, DeviceId) {
    let extra_ports = if dual { 1 } else { fanout };
    let customer_ports = 2 + extra_ports as u32;
    let mut host1 = Device::new("Host1", DeviceRole::Host, 1);
    host1.config.assign_address(0, cidr("10.0.1.5/24"));
    host1.config.rib.add_main(Route {
        dest: Ipv4Cidr::DEFAULT,
        target: RouteTarget::Port {
            port: 0,
            via: Some(ip("10.0.1.1")),
        },
    });
    let host1 = net.add_device(host1);

    let mut d = Device::new("CustomerRouterD", DeviceRole::Router, customer_ports);
    d.config.ip_forwarding = true;
    d.config.assign_address(0, cidr("10.0.1.1/24")); // site 1 LAN
    d.config.assign_address(1, cidr("192.168.0.1/24")); // uplink to ingress
    if dual {
        d.config.assign_address(2, cidr("10.0.3.1/24")); // site 1 second LAN
    }
    for k in 0..fanout {
        let (s1, _) = fanout_pair_subnets(k);
        let gw: u32 = s1.network().into();
        d.config
            .assign_address(2 + k as u32, Ipv4Cidr::new(Ipv4Addr::from(gw + 1), 24));
    }
    d.config.rib.add_main(Route {
        dest: Ipv4Cidr::DEFAULT,
        target: RouteTarget::Port {
            port: 1,
            via: Some(ip("192.168.0.2")),
        },
    });
    let customer1 = net.add_device(d);
    (host1, customer1)
}

/// Build customer site 2 (router E uplinking towards the ISP egress at
/// 192.168.2.2, one host in 10.0.2.0/24 behind it).  Returns
/// `(customer2, host2)`.
fn build_site2(net: &mut Network, dual: bool, fanout: usize) -> (DeviceId, DeviceId) {
    let extra_ports = if dual { 1 } else { fanout };
    let customer_ports = 2 + extra_ports as u32;
    let mut e = Device::new("CustomerRouterE", DeviceRole::Router, customer_ports);
    e.config.ip_forwarding = true;
    e.config.assign_address(0, cidr("10.0.2.1/24"));
    e.config.assign_address(1, cidr("192.168.2.1/24"));
    if dual {
        e.config.assign_address(2, cidr("10.0.4.1/24")); // site 2 second LAN
    }
    for k in 0..fanout {
        let (_, s2) = fanout_pair_subnets(k);
        let gw: u32 = s2.network().into();
        e.config
            .assign_address(2 + k as u32, Ipv4Cidr::new(Ipv4Addr::from(gw + 1), 24));
    }
    e.config.rib.add_main(Route {
        dest: Ipv4Cidr::DEFAULT,
        target: RouteTarget::Port {
            port: 1,
            via: Some(ip("192.168.2.2")),
        },
    });
    let customer2 = net.add_device(e);

    let mut host2 = Device::new("Host2", DeviceRole::Host, 1);
    host2.config.assign_address(0, cidr("10.0.2.5/24"));
    host2.config.rib.add_main(Route {
        dest: Ipv4Cidr::DEFAULT,
        target: RouteTarget::Port {
            port: 0,
            via: Some(ip("10.0.2.1")),
        },
    });
    let host2 = net.add_device(host2);
    (customer2, host2)
}

/// Attach `fanout` extra host pairs (one per LAN from
/// [`fanout_pair_subnets`]) behind the shared customer routers, each
/// default-routed through its gateway.
fn attach_fanout_hosts(
    net: &mut Network,
    customer1: DeviceId,
    customer2: DeviceId,
    fanout: usize,
) -> Vec<(DeviceId, DeviceId)> {
    let mut fanout_pairs = Vec::with_capacity(fanout);
    for k in 0..fanout {
        let (s1, s2) = fanout_pair_subnets(k);
        let (h1_addr, h2_addr) = fanout_pair_hosts(k);
        let gw = |subnet: Ipv4Cidr| -> Ipv4Addr {
            let base: u32 = subnet.network().into();
            Ipv4Addr::from(base + 1)
        };
        let mut a = Device::new(format!("FanHost{k}S1"), DeviceRole::Host, 1);
        a.config.assign_address(0, Ipv4Cidr::new(h1_addr, 24));
        a.config.rib.add_main(Route {
            dest: Ipv4Cidr::DEFAULT,
            target: RouteTarget::Port {
                port: 0,
                via: Some(gw(s1)),
            },
        });
        let a = net.add_device(a);
        let mut b = Device::new(format!("FanHost{k}S2"), DeviceRole::Host, 1);
        b.config.assign_address(0, Ipv4Cidr::new(h2_addr, 24));
        b.config.rib.add_main(Route {
            dest: Ipv4Cidr::DEFAULT,
            target: RouteTarget::Port {
                port: 0,
                via: Some(gw(s2)),
            },
        });
        let b = net.add_device(b);
        net.connect(
            (a, PortId(0)),
            (customer1, PortId(2 + k as u32)),
            LinkProperties::lan(),
        )
        .unwrap();
        net.connect(
            (b, PortId(0)),
            (customer2, PortId(2 + k as u32)),
            LinkProperties::lan(),
        )
        .unwrap();
        fanout_pairs.push((a, b));
    }
    fanout_pairs
}

fn build_isp_chain(n: usize, dual: bool, fanout: usize) -> ChainTopology {
    assert!(n >= 2, "the chain needs at least two core routers");
    let mut net = Network::new();

    // Customer site 1.
    let (host1, customer1) = build_site1(&mut net, dual, fanout);

    // Core routers.  Port plan: port 0 = customer-facing (edges only),
    // port 1 = towards the previous core router, port 2 = towards the next.
    let mut core = Vec::new();
    let mut core_link_addresses = Vec::new();
    for i in 0..n {
        let name = if i < 26 {
            format!("Router{}", (b'A' + i as u8) as char)
        } else {
            format!("Router{}", i)
        };
        let mut r = Device::new(&name, DeviceRole::Router, 3);
        r.config.ip_forwarding = true;
        if i == 0 {
            r.config.assign_address(0, cidr("192.168.0.2/24"));
        }
        if i == n - 1 {
            r.config.assign_address(0, cidr("192.168.2.2/24"));
        }
        core.push(net.add_device(r));
    }

    // Core links: subnet 204.9.(168+i).0/24 between core[i] and core[i+1].
    // Octets are chosen so that n = 3 reproduces the paper's addresses:
    // RouterA = 204.9.168.1, RouterB = 204.9.168.2 / 204.9.169.2,
    // RouterC = 204.9.169.1.
    for i in 0..n - 1 {
        let third = 168 + i as u32;
        let (left_host, right_host) = if n > 2 && i == n - 2 {
            (2u32, 1u32)
        } else {
            (1u32, 2u32)
        };
        let left_addr = Ipv4Addr::from((204u32 << 24) | (9 << 16) | (third << 8) | left_host);
        let right_addr = Ipv4Addr::from((204u32 << 24) | (9 << 16) | (third << 8) | right_host);
        {
            let dev = net.device_mut(core[i]).unwrap();
            dev.config.assign_address(2, Ipv4Cidr::new(left_addr, 24));
        }
        {
            let dev = net.device_mut(core[i + 1]).unwrap();
            dev.config.assign_address(1, Ipv4Cidr::new(right_addr, 24));
        }
        net.connect(
            (core[i], PortId(2)),
            (core[i + 1], PortId(1)),
            LinkProperties::wan(),
        )
        .unwrap();
        core_link_addresses.push((left_addr, right_addr));
    }

    // Customer site 2.
    let (customer2, host2) = build_site2(&mut net, dual, fanout);

    // Edge links.
    net.connect(
        (host1, PortId(0)),
        (customer1, PortId(0)),
        LinkProperties::lan(),
    )
    .unwrap();
    net.connect(
        (customer1, PortId(1)),
        (core[0], PortId(0)),
        LinkProperties::lan(),
    )
    .unwrap();
    net.connect(
        (core[n - 1], PortId(0)),
        (customer2, PortId(1)),
        LinkProperties::lan(),
    )
    .unwrap();
    net.connect(
        (customer2, PortId(0)),
        (host2, PortId(0)),
        LinkProperties::lan(),
    )
    .unwrap();

    // Second customer pair (dual chains): one host per extra LAN.
    let second_pair = if dual {
        let mut host3 = Device::new("Host3", DeviceRole::Host, 1);
        host3.config.assign_address(0, cidr("10.0.3.5/24"));
        host3.config.rib.add_main(Route {
            dest: Ipv4Cidr::DEFAULT,
            target: RouteTarget::Port {
                port: 0,
                via: Some(ip("10.0.3.1")),
            },
        });
        let host3 = net.add_device(host3);
        let mut host4 = Device::new("Host4", DeviceRole::Host, 1);
        host4.config.assign_address(0, cidr("10.0.4.5/24"));
        host4.config.rib.add_main(Route {
            dest: Ipv4Cidr::DEFAULT,
            target: RouteTarget::Port {
                port: 0,
                via: Some(ip("10.0.4.1")),
            },
        });
        let host4 = net.add_device(host4);
        net.connect(
            (host3, PortId(0)),
            (customer1, PortId(2)),
            LinkProperties::lan(),
        )
        .unwrap();
        net.connect(
            (host4, PortId(0)),
            (customer2, PortId(2)),
            LinkProperties::lan(),
        )
        .unwrap();
        Some((host3, host4))
    } else {
        None
    };

    // Fan-out pairs: one host per extra LAN on each side, default-routed
    // through the shared customer router.
    let fanout_pairs = attach_fanout_hosts(&mut net, customer1, customer2, fanout);

    ChainTopology {
        net,
        host1,
        customer1,
        core,
        customer2,
        host2,
        core_link_addresses,
        second_pair,
        fanout_pairs,
    }
}

/// The exact Figure 4 testbed: three ISP routers A, B, C plus the customer
/// routers D (site 1) and E (site 2) and one host per site.
pub fn figure4() -> ChainTopology {
    isp_chain(3)
}

/// A multipath ISP topology: the first testbed family on which a blamed
/// core *link* has a genuine alternative, so link-suspect-aware planning can
/// actually route around it instead of reinstalling through.
///
/// Two shapes share the struct:
///
/// * **Mesh** ([`isp_mesh_fanout`]) — a 2×k redundant core: two parallel
///   rows of `k` routers with a cross-link at every stage, both rows
///   reachable from a dedicated ingress and egress edge router.
///
/// ```text
///                  U1 -- U2 -- ... -- Uk
///                 /  |     |           |  \
/// host1 -- D -- In   |     |           |   Out -- E -- host2
///                 \  |     |           |  /
///                  L1 -- L2 -- ... -- Lk
/// ```
///
/// * **Ring** ([`isp_ring_fanout`]) — `k` core routers in a cycle, the
///   ingress and egress edges attached at opposite points, giving exactly
///   two disjoint arcs between them.
///
/// Customer sites, addressing and the fan-out host pairs are identical to
/// the chain's ([`isp_chain_fanout`]), so every goal again runs real
/// end-to-end traffic.
#[derive(Debug)]
pub struct MeshTopology {
    /// The network.
    pub net: Network,
    /// Host in customer site 1 (10.0.1.5).
    pub host1: DeviceId,
    /// Customer router at site 1.
    pub customer1: DeviceId,
    /// ISP ingress edge router (customer-facing port 0, 192.168.0.2; port 1
    /// is left free for an NM station).
    pub ingress: DeviceId,
    /// Upper core row, in path order (empty on rings).
    pub upper: Vec<DeviceId>,
    /// Lower core row, in path order (empty on rings).
    pub lower: Vec<DeviceId>,
    /// Ring core routers, in cycle order (empty on meshes).
    pub ring: Vec<DeviceId>,
    /// ISP egress edge router (customer-facing port 0, 192.168.2.2).
    pub egress: DeviceId,
    /// Customer router at site 2.
    pub customer2: DeviceId,
    /// Host in customer site 2 (10.0.2.5).
    pub host2: DeviceId,
    /// Fan-out customer host pairs (see [`fanout_pair_subnets`]).
    pub fanout_pairs: Vec<(DeviceId, DeviceId)>,
    /// Core-facing ports of every ISP router, in the order they were wired —
    /// what a managed testbed needs to build the right router agents.
    pub core_ports: BTreeMap<DeviceId, Vec<u32>>,
}

impl MeshTopology {
    /// Every ISP router (edges first, then the core), in creation order.
    pub fn routers(&self) -> Vec<DeviceId> {
        let mut out = vec![self.ingress];
        out.extend(&self.upper);
        out.extend(&self.lower);
        out.extend(&self.ring);
        out.push(self.egress);
        out
    }
}

/// Assign a fresh /24 (204.9.`(168 + link_no)`.0/24) to both ends of a core
/// link and connect it.  Every core link gets its own subnet, like the
/// chain's.
fn connect_core_link(net: &mut Network, link_no: &mut u32, a: (DeviceId, u32), b: (DeviceId, u32)) {
    let third = 168 + *link_no;
    assert!(third <= 255, "core-link subnet space exhausted");
    *link_no += 1;
    let a_addr = Ipv4Addr::new(204, 9, third as u8, 1);
    let b_addr = Ipv4Addr::new(204, 9, third as u8, 2);
    net.device_mut(a.0)
        .unwrap()
        .config
        .assign_address(a.1, Ipv4Cidr::new(a_addr, 24));
    net.device_mut(b.0)
        .unwrap()
        .config
        .assign_address(b.1, Ipv4Cidr::new(b_addr, 24));
    net.connect(
        (a.0, PortId(a.1)),
        (b.0, PortId(b.1)),
        LinkProperties::wan(),
    )
    .unwrap();
}

/// An ISP router for the mesh family: forwarding on, addresses assigned per
/// link as it is wired.
fn mesh_router(net: &mut Network, name: &str, ports: u32) -> DeviceId {
    let mut r = Device::new(name, DeviceRole::Router, ports);
    r.config.ip_forwarding = true;
    net.add_device(r)
}

/// Build the 2×k redundant-core mesh with `pairs` fan-out customer host
/// pairs.  `k >= 2` stages; see [`MeshTopology`] for the shape.
///
/// Port plan — ingress/egress: 0 customer-facing, 1 free (NM station),
/// 2 upper row, 3 lower row; row router `U_i`/`L_i`: 0 previous hop,
/// 1 next hop, 2 cross-link to the other row.
pub fn isp_mesh_fanout(k: usize, pairs: usize) -> MeshTopology {
    assert!(k >= 2, "the mesh needs at least two core stages");
    let mut net = Network::new();
    let (host1, customer1) = build_site1(&mut net, false, pairs);

    let ingress = mesh_router(&mut net, "RouterIn", 4);
    net.device_mut(ingress)
        .unwrap()
        .config
        .assign_address(0, cidr("192.168.0.2/24"));
    let upper: Vec<DeviceId> = (0..k)
        .map(|i| mesh_router(&mut net, &format!("RouterU{}", i + 1), 3))
        .collect();
    let lower: Vec<DeviceId> = (0..k)
        .map(|i| mesh_router(&mut net, &format!("RouterL{}", i + 1), 3))
        .collect();
    let egress = mesh_router(&mut net, "RouterOut", 4);
    net.device_mut(egress)
        .unwrap()
        .config
        .assign_address(0, cidr("192.168.2.2/24"));

    let mut link_no = 0u32;
    // Edge fan-in: the ingress reaches both rows, so do the rows the egress.
    connect_core_link(&mut net, &mut link_no, (ingress, 2), (upper[0], 0));
    connect_core_link(&mut net, &mut link_no, (ingress, 3), (lower[0], 0));
    // Row links.
    for i in 0..k - 1 {
        connect_core_link(&mut net, &mut link_no, (upper[i], 1), (upper[i + 1], 0));
        connect_core_link(&mut net, &mut link_no, (lower[i], 1), (lower[i + 1], 0));
    }
    // Cross-links: every stage can hop between the rows.
    for i in 0..k {
        connect_core_link(&mut net, &mut link_no, (upper[i], 2), (lower[i], 2));
    }
    connect_core_link(&mut net, &mut link_no, (upper[k - 1], 1), (egress, 2));
    connect_core_link(&mut net, &mut link_no, (lower[k - 1], 1), (egress, 3));

    let mut core_ports = BTreeMap::new();
    core_ports.insert(ingress, vec![2, 3]);
    core_ports.insert(egress, vec![2, 3]);
    for &u in upper.iter().chain(lower.iter()) {
        core_ports.insert(u, vec![0, 1, 2]);
    }

    let (customer2, host2) = build_site2(&mut net, false, pairs);
    net.connect(
        (host1, PortId(0)),
        (customer1, PortId(0)),
        LinkProperties::lan(),
    )
    .unwrap();
    net.connect(
        (customer1, PortId(1)),
        (ingress, PortId(0)),
        LinkProperties::lan(),
    )
    .unwrap();
    net.connect(
        (egress, PortId(0)),
        (customer2, PortId(1)),
        LinkProperties::lan(),
    )
    .unwrap();
    net.connect(
        (customer2, PortId(0)),
        (host2, PortId(0)),
        LinkProperties::lan(),
    )
    .unwrap();
    let fanout_pairs = attach_fanout_hosts(&mut net, customer1, customer2, pairs);

    MeshTopology {
        net,
        host1,
        customer1,
        ingress,
        upper,
        lower,
        ring: Vec::new(),
        egress,
        customer2,
        host2,
        fanout_pairs,
        core_ports,
    }
}

/// Build the ring variant: `k >= 4` core routers in a cycle, the ingress
/// edge attached at `R1` and the egress edge at `R(k/2 + 1)` — two disjoint
/// arcs between the edges, so any single ring-link cut leaves a route.
///
/// Port plan — edges: 0 customer-facing, 1 free (NM station), 2 ring
/// attach; ring router `R_i`: 0 previous in the cycle, 1 next, 2 edge
/// attach (only wired on the two attachment routers).
pub fn isp_ring_fanout(k: usize, pairs: usize) -> MeshTopology {
    assert!(k >= 4, "the ring needs at least four core routers");
    let mut net = Network::new();
    let (host1, customer1) = build_site1(&mut net, false, pairs);

    let ingress = mesh_router(&mut net, "RouterIn", 3);
    net.device_mut(ingress)
        .unwrap()
        .config
        .assign_address(0, cidr("192.168.0.2/24"));
    let ring: Vec<DeviceId> = (0..k)
        .map(|i| mesh_router(&mut net, &format!("RouterR{}", i + 1), 3))
        .collect();
    let egress = mesh_router(&mut net, "RouterOut", 3);
    net.device_mut(egress)
        .unwrap()
        .config
        .assign_address(0, cidr("192.168.2.2/24"));

    let mut link_no = 0u32;
    let attach = k / 2;
    connect_core_link(&mut net, &mut link_no, (ingress, 2), (ring[0], 2));
    connect_core_link(&mut net, &mut link_no, (egress, 2), (ring[attach], 2));
    for i in 0..k {
        connect_core_link(&mut net, &mut link_no, (ring[i], 1), (ring[(i + 1) % k], 0));
    }

    let mut core_ports = BTreeMap::new();
    core_ports.insert(ingress, vec![2]);
    core_ports.insert(egress, vec![2]);
    for (i, &r) in ring.iter().enumerate() {
        if i == 0 || i == attach {
            core_ports.insert(r, vec![0, 1, 2]);
        } else {
            core_ports.insert(r, vec![0, 1]);
        }
    }

    let (customer2, host2) = build_site2(&mut net, false, pairs);
    net.connect(
        (host1, PortId(0)),
        (customer1, PortId(0)),
        LinkProperties::lan(),
    )
    .unwrap();
    net.connect(
        (customer1, PortId(1)),
        (ingress, PortId(0)),
        LinkProperties::lan(),
    )
    .unwrap();
    net.connect(
        (egress, PortId(0)),
        (customer2, PortId(1)),
        LinkProperties::lan(),
    )
    .unwrap();
    net.connect(
        (customer2, PortId(0)),
        (host2, PortId(0)),
        LinkProperties::lan(),
    )
    .unwrap();
    let fanout_pairs = attach_fanout_hosts(&mut net, customer1, customer2, pairs);

    MeshTopology {
        net,
        host1,
        customer1,
        ingress,
        upper: Vec::new(),
        lower: Vec::new(),
        ring,
        egress,
        customer2,
        host2,
        fanout_pairs,
        core_ports,
    }
}

/// The Figure 2 GRE-tunnel testbed: two end devices A and B, a layer-2
/// switch C between A and the router D.
///
/// ```text
/// A ---- C (layer-2 switch) ---- D (router) ---- B
/// ```
#[derive(Debug)]
pub struct Figure2Testbed {
    /// The network.
    pub net: Network,
    /// End device A (204.9.168.1).
    pub a: DeviceId,
    /// End device B (204.9.169.1).
    pub b: DeviceId,
    /// The layer-2 switch C.
    pub c: DeviceId,
    /// The router D (204.9.168.2 / 204.9.169.2).
    pub d: DeviceId,
}

/// Build the Figure 2 testbed.
pub fn figure2() -> Figure2Testbed {
    let mut net = Network::new();

    let mut a = Device::new("DeviceA", DeviceRole::Host, 1);
    a.config.assign_address(0, cidr("204.9.168.1/24"));
    a.config.rib.add_main(Route {
        dest: Ipv4Cidr::DEFAULT,
        target: RouteTarget::Port {
            port: 0,
            via: Some(ip("204.9.168.2")),
        },
    });
    let a = net.add_device(a);

    let c = net.add_device(basic_switch("DeviceC", 2));

    let mut d = Device::new("DeviceD", DeviceRole::Router, 2);
    d.config.ip_forwarding = true;
    d.config.assign_address(0, cidr("204.9.168.2/24"));
    d.config.assign_address(1, cidr("204.9.169.2/24"));
    let d = net.add_device(d);

    let mut b = Device::new("DeviceB", DeviceRole::Host, 1);
    b.config.assign_address(0, cidr("204.9.169.1/24"));
    b.config.rib.add_main(Route {
        dest: Ipv4Cidr::DEFAULT,
        target: RouteTarget::Port {
            port: 0,
            via: Some(ip("204.9.169.2")),
        },
    });
    let b = net.add_device(b);

    net.connect((a, PortId(0)), (c, PortId(0)), LinkProperties::lan())
        .unwrap();
    net.connect((c, PortId(1)), (d, PortId(0)), LinkProperties::lan())
        .unwrap();
    net.connect((d, PortId(1)), (b, PortId(0)), LinkProperties::lan())
        .unwrap();

    Figure2Testbed { net, a, b, c, d }
}

/// The Figure 9 layer-2 VPN testbed: a chain of provider switches carrying a
/// customer VLAN tunnel between two customer routers on the same subnet.
#[derive(Debug)]
pub struct VlanChain {
    /// The network.
    pub net: Network,
    /// Customer router at site 1 (10.0.0.1/24).
    pub customer1: DeviceId,
    /// Provider switches in path order (SwitchA, SwitchB, SwitchC for n = 3).
    pub switches: Vec<DeviceId>,
    /// Customer router at site 2 (10.0.0.2/24).
    pub customer2: DeviceId,
}

/// Build a chain of `n >= 2` provider switches with a customer router at
/// each end.  Switch port plan: port 0 = customer-facing (edges only),
/// port 1 = previous switch, port 2 = next switch.  The switches start
/// unconfigured (all ports in access VLAN 1): the VLAN-tunnel configuration
/// is what the experiments apply.
pub fn vlan_chain(n: usize) -> VlanChain {
    assert!(n >= 2, "the chain needs at least two switches");
    let mut net = Network::new();

    let mut d = Device::new("CustomerD", DeviceRole::Host, 1);
    d.config.assign_address(0, cidr("10.0.0.1/24"));
    let customer1 = net.add_device(d);

    let mut switches = Vec::new();
    for i in 0..n {
        let name = if i < 26 {
            format!("Switch{}", (b'A' + i as u8) as char)
        } else {
            format!("Switch{}", i)
        };
        switches.push(net.add_device(basic_switch(&name, 3)));
    }

    let mut e = Device::new("CustomerE", DeviceRole::Host, 1);
    e.config.assign_address(0, cidr("10.0.0.2/24"));
    let customer2 = net.add_device(e);

    net.connect(
        (customer1, PortId(0)),
        (switches[0], PortId(0)),
        LinkProperties::lan(),
    )
    .unwrap();
    for i in 0..n - 1 {
        net.connect(
            (switches[i], PortId(2)),
            (switches[i + 1], PortId(1)),
            LinkProperties::lan(),
        )
        .unwrap();
    }
    net.connect(
        (switches[n - 1], PortId(0)),
        (customer2, PortId(0)),
        LinkProperties::lan(),
    )
    .unwrap();

    VlanChain {
        net,
        customer1,
        switches,
        customer2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_has_expected_devices_and_addresses() {
        let t = figure4();
        assert_eq!(t.core.len(), 3);
        let a = t.net.device(t.core[0]).unwrap();
        assert_eq!(a.name, "RouterA");
        assert!(a.config.is_local_address(ip("204.9.168.1")));
        assert!(a.config.is_local_address(ip("192.168.0.2")));
        let b = t.net.device(t.core[1]).unwrap();
        assert!(b.config.is_local_address(ip("204.9.168.2")));
        assert!(b.config.is_local_address(ip("204.9.169.2")));
        let c = t.net.device(t.core[2]).unwrap();
        assert!(c.config.is_local_address(ip("204.9.169.1")));
        assert_eq!(
            (t.core_link_addresses[0].0, t.core_link_addresses[1].1),
            (ip("204.9.168.1"), ip("204.9.169.1"))
        );
        // 7 devices, 6 links.
        assert_eq!(t.net.device_ids().len(), 7);
        assert_eq!(t.net.links().len(), 6);
    }

    #[test]
    fn figure4_without_vpn_cannot_carry_customer_traffic() {
        // Before any VPN configuration the ISP does not know the customer
        // prefixes, so site-1 traffic to site 2 is dropped at the ingress.
        let mut t = figure4();
        t.net
            .send_udp(t.host1, ip("10.0.2.5"), 1000, 2000, b"before-vpn")
            .unwrap();
        t.net.run_to_quiescence(10_000);
        let delivered = t.net.device_mut(t.host2).unwrap().take_delivered();
        assert!(delivered.is_empty());
    }

    #[test]
    fn figure2_hosts_reach_the_router_but_not_each_other_without_tunnel_routes() {
        let mut t = figure2();
        // A reaches its gateway D across the switch.
        t.net
            .send_udp(t.a, ip("204.9.168.2"), 7, 1, b"to D")
            .unwrap();
        t.net.run_to_quiescence(10_000);
        let got = t.net.device_mut(t.d).unwrap().take_delivered();
        assert_eq!(got.len(), 1, "D should receive A's datagram");
        // And A can even reach B directly because D forwards between its
        // connected subnets — the tunnel the NM builds later adds ordering,
        // keys and isolation on top of this raw reachability.
        t.net
            .send_udp(t.a, ip("204.9.169.1"), 7, 2, b"to B")
            .unwrap();
        t.net.run_to_quiescence(10_000);
        let got = t.net.device_mut(t.b).unwrap().take_delivered();
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn isp_chain_scales() {
        for n in [2usize, 4, 8] {
            let t = isp_chain(n);
            assert_eq!(t.core.len(), n);
            assert_eq!(t.core_link_addresses.len(), n - 1);
            assert_eq!(t.net.device_ids().len(), n + 4);
        }
    }

    #[test]
    fn dual_chain_adds_a_second_customer_pair_behind_the_same_routers() {
        let t = isp_chain_dual(3);
        let (h3, h4) = t.second_pair.expect("dual chain has a second pair");
        // 3 core + 2 customer routers + 4 hosts.
        assert_eq!(t.net.device_ids().len(), 9);
        assert!(t
            .net
            .device(h3)
            .unwrap()
            .config
            .is_local_address(ip("10.0.3.5")));
        assert!(t
            .net
            .device(h4)
            .unwrap()
            .config
            .is_local_address(ip("10.0.4.5")));
        // Without VPN state the ISP carries neither customer's traffic.
        let mut t = t;
        t.net
            .send_udp(h3, ip("10.0.4.5"), 1000, 2000, b"before-vpn-2")
            .unwrap();
        t.net.run_to_quiescence(10_000);
        assert!(t.net.device_mut(h4).unwrap().take_delivered().is_empty());
    }

    #[test]
    fn fanout_chain_adds_a_pair_per_lan_with_disjoint_subnets() {
        let t = isp_chain_fanout(3, 70); // crosses the 64-per-octet boundary
        assert_eq!(t.fanout_pairs.len(), 70);
        // 3 core + 2 customer routers + 2 base hosts + 140 fan-out hosts.
        assert_eq!(t.net.device_ids().len(), 147);
        let (h1, _) = t.fanout_pairs[0];
        let (h65a, h65b) = t.fanout_pairs[64];
        assert!(t
            .net
            .device(h1)
            .unwrap()
            .config
            .is_local_address(ip("10.1.0.5")));
        assert!(t
            .net
            .device(h65a)
            .unwrap()
            .config
            .is_local_address(ip("10.2.0.5")));
        assert!(t
            .net
            .device(h65b)
            .unwrap()
            .config
            .is_local_address(ip("10.2.1.5")));
        // Subnets are pairwise disjoint.
        let mut seen = std::collections::BTreeSet::new();
        for k in 0..70 {
            let (a, b) = fanout_pair_subnets(k);
            assert!(seen.insert(a.network()));
            assert!(seen.insert(b.network()));
        }
        // A fan-out host reaches its own gateway...
        let mut t = t;
        t.net.send_udp(h1, ip("10.1.0.1"), 1, 1, b"hello").unwrap();
        t.net.run_to_quiescence(10_000);
        let gateway = t.net.device_mut(t.customer1).unwrap();
        assert_eq!(gateway.take_delivered().len(), 1);
        // ...but not its peer before any VPN is configured.
        let (src, dst) = t.fanout_pairs[1];
        let (_, dst_ip) = fanout_pair_hosts(1);
        t.net.send_udp(src, dst_ip, 1, 2, b"before-vpn").unwrap();
        t.net.run_to_quiescence(10_000);
        assert!(t.net.device_mut(dst).unwrap().take_delivered().is_empty());
    }

    #[test]
    fn mesh_has_a_redundant_core_with_cross_links() {
        let t = isp_mesh_fanout(2, 3);
        assert_eq!(t.upper.len(), 2);
        assert_eq!(t.lower.len(), 2);
        assert!(t.ring.is_empty());
        // 6 ISP routers + 2 customer routers + 2 base hosts + 6 fan-out hosts.
        assert_eq!(t.net.device_ids().len(), 16);
        // Core links: 2 edge-in + 2 row + 2 cross + 2 edge-out = 8, plus the
        // 4 customer-side links and 6 fan-out host links.
        assert_eq!(t.net.links().len(), 18);
        // Every advertised core link exists, and each end got an address in
        // the link's own /24.
        for (dev, ports) in &t.core_ports {
            for p in ports {
                assert!(
                    t.net
                        .device(*dev)
                        .unwrap()
                        .config
                        .address_on_port(*p)
                        .is_some(),
                    "core port {p} of {dev} must be addressed"
                );
            }
        }
        // The redundancy that matters: cutting any single upper-row link
        // leaves the lower row (and the cross-links) intact.
        assert!(t.net.link_between(t.upper[0], t.upper[1]).is_some());
        assert!(t.net.link_between(t.lower[0], t.lower[1]).is_some());
        assert!(t.net.link_between(t.upper[0], t.lower[0]).is_some());
        assert!(t.net.link_between(t.ingress, t.upper[0]).is_some());
        assert!(t.net.link_between(t.ingress, t.lower[0]).is_some());
        assert!(t.net.link_between(t.upper[1], t.egress).is_some());
        assert!(t.net.link_between(t.lower[1], t.egress).is_some());
        assert_eq!(t.routers().len(), 6);
        assert_eq!(t.upper.len() + t.lower.len(), 4);
    }

    #[test]
    fn mesh_fanout_hosts_cannot_cross_before_vpn_configuration() {
        let mut t = isp_mesh_fanout(2, 2);
        let (src, dst) = t.fanout_pairs[0];
        let (_, dst_ip) = fanout_pair_hosts(0);
        // A fan-out host reaches its own gateway...
        t.net.send_udp(src, ip("10.1.0.1"), 1, 1, b"hello").unwrap();
        t.net.run_to_quiescence(10_000);
        let gateway = t.net.device_mut(t.customer1).unwrap();
        assert_eq!(gateway.take_delivered().len(), 1);
        // ...but not its peer: the ISP mesh has no customer routes yet.
        t.net.send_udp(src, dst_ip, 1, 2, b"before-vpn").unwrap();
        t.net.run_to_quiescence(10_000);
        assert!(t.net.device_mut(dst).unwrap().take_delivered().is_empty());
    }

    #[test]
    fn ring_attaches_the_edges_on_opposite_arcs() {
        let t = isp_ring_fanout(4, 1);
        assert_eq!(t.ring.len(), 4);
        assert!(t.upper.is_empty() && t.lower.is_empty());
        // Ring cycle closed, edges on R1 and R3.
        for i in 0..4 {
            assert!(t.net.link_between(t.ring[i], t.ring[(i + 1) % 4]).is_some());
        }
        assert!(t.net.link_between(t.ingress, t.ring[0]).is_some());
        assert!(t.net.link_between(t.egress, t.ring[2]).is_some());
        // 6 ISP routers + 2 customer routers + 2 hosts + 2 fan-out hosts.
        assert_eq!(t.net.device_ids().len(), 12);
    }

    #[test]
    fn flow_windows_attribute_device_tallies_per_tag() {
        let mut t = isp_chain(2);
        // A tagged window around a burst credits the traffic to the tag.
        t.net.begin_flow_window(7);
        t.net
            .send_udp(t.host1, ip("10.0.1.1"), 1, 2, b"to-gateway")
            .unwrap();
        t.net.run_to_quiescence(10_000);
        t.net.end_flow_window();
        let f = t.net.flow_counters(t.host1, 7);
        assert_eq!(f.originated, 1);
        // A different tag saw nothing.
        assert!(t.net.flow_counters(t.host1, 8).is_empty());
        // Untagged traffic is credited to no flow.
        t.net
            .send_udp(t.host1, ip("10.0.1.1"), 1, 2, b"untagged")
            .unwrap();
        t.net.run_to_quiescence(10_000);
        assert_eq!(t.net.flow_counters(t.host1, 7).originated, 1);
    }

    #[test]
    fn vlan_chain_floods_untagged_frames_by_default() {
        // With all ports in the default VLAN the two customers can already
        // exchange frames (no isolation!) — the VLAN tunnel configuration is
        // about isolating customer traffic, which the VPN tests verify.
        let mut t = vlan_chain(3);
        t.net
            .send_udp(t.customer1, ip("10.0.0.2"), 5, 6, b"flooded")
            .unwrap();
        t.net.run_to_quiescence(10_000);
        let delivered = t.net.device_mut(t.customer2).unwrap().take_delivered();
        assert_eq!(delivered.len(), 1);
    }
}

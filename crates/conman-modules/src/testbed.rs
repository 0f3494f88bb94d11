//! Managed testbeds: the paper's experimental set-ups with CONMan agents
//! attached and an NM ready to manage them.
//!
//! The NM is hosted on a dedicated management station (a device with no data
//! plane role), mirroring the paper's separate management machine; devices
//! reach it over the management channel (out-of-band by default).

use crate::builder::{
    build_plain_router_agent, build_router_agent, build_tunnel_host_agent, build_vlan_switch_agent,
    RouterPlan,
};
use conman_core::ids::ModuleKind;
use conman_core::nm::ConnectivityGoal;
use conman_core::runtime::{GoalEndpoints, ManagedNetwork};
use mgmt_channel::{ManagementChannel, OutOfBandChannel};
use netsim::device::{Device, DeviceId, DeviceRole, PortId};
use netsim::link::LinkProperties;
use netsim::topology::{self, ChainTopology, MeshTopology, VlanChain};

/// A managed version of the Figure 4 / chain VPN testbed.
pub struct ManagedChain<C: ManagementChannel> {
    /// The managed network (data plane + agents + NM + channel).
    pub mn: ManagedNetwork<C>,
    /// Host in customer site 1.
    pub host1: DeviceId,
    /// Customer router at site 1 (unmanaged by the ISP's NM).
    pub customer1: DeviceId,
    /// The ISP core routers, in path order.
    pub core: Vec<DeviceId>,
    /// Customer router at site 2 (unmanaged).
    pub customer2: DeviceId,
    /// Host in customer site 2.
    pub host2: DeviceId,
    /// Second customer host pair (dual chains only): a host in 10.0.3.0/24
    /// behind customer router 1 and one in 10.0.4.0/24 behind customer
    /// router 2 — the endpoints of a second concurrent VPN goal.
    pub second_pair: Option<(DeviceId, DeviceId)>,
    /// Fan-out customer host pairs (fan-out chains only): pair `k`'s hosts
    /// live in the subnets of [`topology::fanout_pair_subnets`]`(k)` behind
    /// the shared customer routers — the endpoints of the k-th concurrent
    /// VPN goal, with real end-to-end traffic for every goal.
    pub fanout: Vec<(DeviceId, DeviceId)>,
    /// Monotonic probe payload counter (each diagnosis probe is distinct).
    probe_seq: u64,
}

/// Build a managed ISP chain with `n` core routers using the out-of-band
/// management channel.  `n = 3` is the paper's Figure 4 testbed.
pub fn managed_chain(n: usize) -> ManagedChain<OutOfBandChannel> {
    managed_chain_with(n, OutOfBandChannel::new())
}

/// Build a managed ISP chain with a second customer pair behind the same
/// customer routers (see [`topology::isp_chain_dual`]) — the multi-goal
/// testbed: two VPN goals between the same customer-facing interfaces for
/// different site classes, sharing the ISP core modules.
pub fn managed_dual_chain(n: usize) -> ManagedChain<OutOfBandChannel> {
    managed_dual_chain_with(n, OutOfBandChannel::new())
}

/// [`managed_dual_chain`] over an arbitrary management channel.
pub fn managed_dual_chain_with<C: ManagementChannel>(n: usize, channel: C) -> ManagedChain<C> {
    managed_from_topology(topology::isp_chain_dual(n), n, channel)
}

/// Build a managed ISP chain with `pairs` fan-out customer host pairs (see
/// [`topology::isp_chain_fanout`]) — the autonomic-loop testbed: one VPN
/// goal per pair between the same customer-facing interfaces, every goal
/// backed by real hosts so per-goal health probes and flow-attributed
/// diagnosis run on genuine end-to-end traffic.
pub fn managed_fanout_chain(n: usize, pairs: usize) -> ManagedChain<OutOfBandChannel> {
    managed_fanout_chain_with(n, pairs, OutOfBandChannel::new())
}

/// [`managed_fanout_chain`] over an arbitrary management channel — e.g. the
/// in-band flooding channel, whose per-message fan-out the loop bench's
/// message-budget row measures.
pub fn managed_fanout_chain_with<C: ManagementChannel>(
    n: usize,
    pairs: usize,
    channel: C,
) -> ManagedChain<C> {
    managed_from_topology(topology::isp_chain_fanout(n, pairs), n, channel)
}

/// Build a managed ISP chain over an arbitrary management channel.
pub fn managed_chain_with<C: ManagementChannel>(n: usize, channel: C) -> ManagedChain<C> {
    managed_from_topology(topology::isp_chain(n), n, channel)
}

fn managed_from_topology<C: ManagementChannel>(
    topo: ChainTopology,
    n: usize,
    channel: C,
) -> ManagedChain<C> {
    let ChainTopology {
        mut net,
        host1,
        customer1,
        core,
        customer2,
        host2,
        second_pair,
        fanout_pairs,
        ..
    } = topo;

    // The NM's management station.  The out-of-band channel needs no
    // physical attachment (direct mailboxes), but the in-band variant floods
    // over real links, so the station is plugged into the ingress router's
    // free port — the paper's "NM is attached somewhere in the network".
    let station = net.add_device(Device::new("NMStation", DeviceRole::Host, 1));
    net.connect(
        (station, PortId(0)),
        (core[0], PortId(1)),
        LinkProperties::lan(),
    )
    .expect("the first core router's previous-hop port is free");

    let mut mn = ManagedNetwork::new(net, station, channel);
    for (i, id) in core.iter().enumerate() {
        let device = mn.net.device(*id).expect("core router exists");
        let plan = if i == 0 || i == n - 1 {
            RouterPlan::edge(0, device_core_ports(i, n))
        } else {
            RouterPlan::core(device_core_ports(i, n))
        };
        let agent = build_router_agent(device, &plan);
        mn.add_agent(agent);
    }
    ManagedChain {
        mn,
        host1,
        customer1,
        core,
        customer2,
        host2,
        second_pair,
        fanout: fanout_pairs,
        probe_seq: 0,
    }
}

/// Port plan used by `netsim::topology::isp_chain`: port 0 customer-facing,
/// port 1 towards the previous core router, port 2 towards the next.
fn device_core_ports(i: usize, n: usize) -> Vec<u32> {
    let mut ports = Vec::new();
    if i > 0 {
        ports.push(1);
    }
    if i < n - 1 {
        ports.push(2);
    }
    ports
}

/// The paper's high-level VPN goal between the customer-facing ETH modules
/// (port 0) of two edge routers — shared by the chain and mesh testbeds.
fn vpn_goal_between<C: ManagementChannel>(
    mn: &ManagedNetwork<C>,
    ingress: DeviceId,
    egress: DeviceId,
) -> ConnectivityGoal {
    let from = mn
        .nm
        .module_on_port(ingress, PortId(0))
        .expect("ingress customer-facing ETH module (run discover() first)");
    let to = mn
        .nm
        .module_on_port(egress, PortId(0))
        .expect("egress customer-facing ETH module (run discover() first)");
    ConnectivityGoal::vpn(from, to)
        .resolve("C1-S1", "10.0.1.0/24")
        .resolve("C1-S2", "10.0.2.0/24")
        .resolve("S1-gateway", "192.168.0.1")
        .resolve("S2-gateway", "192.168.2.1")
}

/// Rewrite a base VPN goal onto fan-out pair `k`'s site classes and subnets.
fn fanout_classes(mut goal: ConnectivityGoal, k: usize) -> ConnectivityGoal {
    let (s1, s2) = topology::fanout_pair_subnets(k);
    goal.src_class = format!("F{k}-S1");
    goal.dst_class = format!("F{k}-S2");
    goal.resolved.remove("C1-S1");
    goal.resolved.remove("C1-S2");
    goal.resolved.insert(format!("F{k}-S1"), s1.to_string());
    goal.resolved.insert(format!("F{k}-S2"), s2.to_string());
    goal
}

impl<C: ManagementChannel> ManagedChain<C> {
    /// Run the announce + discovery phase.
    pub fn discover(&mut self) {
        self.mn.announce_all();
        self.mn.discover();
    }

    /// The paper's high-level VPN goal: connectivity between the customer
    /// facing interfaces of the first and last core router for traffic
    /// between customer-1 site 1 and site 2.
    pub fn vpn_goal(&self) -> ConnectivityGoal {
        let ingress = *self.core.first().expect("at least one core router");
        let egress = *self.core.last().expect("at least one core router");
        vpn_goal_between(&self.mn, ingress, egress)
    }

    /// The second customer's VPN goal (dual chains): the same customer
    /// facing interfaces, a different pair of site classes (`C2-S1` =
    /// 10.0.3.0/24, `C2-S2` = 10.0.4.0/24).  Submitted alongside
    /// [`Self::vpn_goal`] it exercises concurrent goals sharing the ISP
    /// core modules.
    pub fn vpn_goal2(&self) -> ConnectivityGoal {
        let mut goal = self.vpn_goal();
        goal.src_class = "C2-S1".to_string();
        goal.dst_class = "C2-S2".to_string();
        goal.resolved.remove("C1-S1");
        goal.resolved.remove("C1-S2");
        goal.resolved
            .insert("C2-S1".to_string(), "10.0.3.0/24".to_string());
        goal.resolved
            .insert("C2-S2".to_string(), "10.0.4.0/24".to_string());
        goal
    }

    /// The `k`-th fan-out pair's VPN goal (fan-out chains): the same
    /// customer-facing interfaces as [`Self::vpn_goal`], site classes
    /// `F<k>-S1`/`F<k>-S2` resolved to the pair's subnets.
    pub fn fanout_goal(&self, k: usize) -> ConnectivityGoal {
        assert!(k < self.fanout.len(), "fan-out pair {k} does not exist");
        fanout_classes(self.vpn_goal(), k)
    }

    /// The `k`-th fan-out pair's probe endpoints: `(source host,
    /// destination host, destination address)` — what the autonomic loop
    /// registers alongside the goal so it can drive per-goal end-to-end
    /// traffic.
    pub fn fanout_probe(&self, k: usize) -> (DeviceId, DeviceId, std::net::Ipv4Addr) {
        let (src, dst) = self.fanout[k];
        let (_, dst_ip) = topology::fanout_pair_hosts(k);
        (src, dst, dst_ip)
    }

    /// One end-to-end probe for the `k`-th fan-out pair; returns whether it
    /// was delivered.
    pub fn probe_pair(&mut self, k: usize) -> bool {
        let (src, dst, dst_ip) = self.fanout_probe(k);
        self.probe_seq += 1;
        let payload = format!("fan{k}-probe-{}", self.probe_seq);
        GoalEndpoints { src, dst, dst_ip }.probe(&mut self.mn.net, payload.as_bytes())
    }

    /// Send a customer datagram from site 1 to site 2 and report whether it
    /// arrived, together with the encapsulations observed inside the ISP.
    pub fn send_site1_to_site2(&mut self, payload: &[u8]) -> (bool, Vec<String>) {
        self.send_between(self.host1, "10.0.2.5", payload)
    }

    /// Send a customer datagram from site 2 to site 1.
    pub fn send_site2_to_site1(&mut self, payload: &[u8]) -> (bool, Vec<String>) {
        self.send_between(self.host2, "10.0.1.5", payload)
    }

    /// One end-to-end diagnosis probe (site 1 → site 2) with a distinct
    /// payload; returns whether it was delivered.  This is the probe closure
    /// the `conman-diagnose` Diagnoser drives.
    pub fn probe(&mut self) -> bool {
        self.probe_seq += 1;
        let payload = format!("diag-probe-{}", self.probe_seq).into_bytes();
        self.send_site1_to_site2(&payload).0
    }

    /// One end-to-end probe for the second customer pair (dual chains):
    /// host 10.0.3.5 → 10.0.4.5.  Panics unless built with
    /// [`managed_dual_chain`].
    pub fn probe2(&mut self) -> bool {
        let (src, dst) = self.second_pair.expect("dual chain");
        self.probe_seq += 1;
        let payload = format!("diag2-probe-{}", self.probe_seq);
        let dst_ip = "10.0.4.5".parse().unwrap();
        GoalEndpoints { src, dst, dst_ip }.probe(&mut self.mn.net, payload.as_bytes())
    }

    /// A self-contained probe closure for the diagnosis layer: captures the
    /// site hosts by id (not the testbed), so it can be handed to
    /// `Diagnoser::diagnose` / `reconcile_with` alongside `&mut self.mn`.
    pub fn probe_fn(&self) -> impl FnMut(&mut ManagedNetwork<C>) -> bool {
        Self::probe_between(self.host1, self.host2, "10.0.2.5")
    }

    /// A probe closure for the second customer pair (dual chains).
    pub fn probe2_fn(&self) -> impl FnMut(&mut ManagedNetwork<C>) -> bool {
        let (host3, host4) = self.second_pair.expect("dual chain");
        Self::probe_between(host3, host4, "10.0.4.5")
    }

    fn probe_between(
        src: DeviceId,
        dst: DeviceId,
        dst_ip: &str,
    ) -> impl FnMut(&mut ManagedNetwork<C>) -> bool {
        let dst_ip = dst_ip.parse().unwrap();
        let endpoints = GoalEndpoints { src, dst, dst_ip };
        let mut seq = 0u64;
        move |mn: &mut ManagedNetwork<C>| {
            seq += 1;
            endpoints.probe(&mut mn.net, format!("diag-fn-{src}-{seq}").as_bytes())
        }
    }

    /// The core link between `core[i]` and `core[i + 1]` — the usual target
    /// of link-cut/flap/loss fault injection.
    pub fn core_link(&self, i: usize) -> Option<netsim::link::LinkId> {
        let a = *self.core.get(i)?;
        let b = *self.core.get(i + 1)?;
        self.mn.net.link_between(a, b)
    }

    /// The modules the NM discovered on a core router, by kind — handy for
    /// asserting which module a fault report blames.
    pub fn core_module(&self, i: usize, kind: &ModuleKind) -> Option<conman_core::ids::ModuleRef> {
        self.mn.nm.find_module(*self.core.get(i)?, kind)
    }

    fn send_between(&mut self, from: DeviceId, dst: &str, payload: &[u8]) -> (bool, Vec<String>) {
        let endpoints = GoalEndpoints {
            src: from,
            dst: if dst == "10.0.2.5" {
                self.host2
            } else {
                self.host1
            },
            dst_ip: dst.parse().unwrap(),
        };
        self.mn.net.clear_trace();
        let delivered = endpoints.probe(&mut self.mn.net, payload);
        let ingress = self.core[0];
        let paths = self.mn.net.protocol_paths_from(ingress);
        (delivered, paths)
    }
}

/// A managed version of the multipath mesh / ring testbeds
/// ([`topology::isp_mesh_fanout`] / [`topology::isp_ring_fanout`]): the first
/// topology family on which link-suspect-aware planning has a genuine
/// alternative to reroute onto when diagnosis blames a core link.
pub struct ManagedMesh<C: ManagementChannel> {
    /// The managed network (data plane + agents + NM + channel).
    pub mn: ManagedNetwork<C>,
    /// Host in customer site 1.
    pub host1: DeviceId,
    /// Customer router at site 1 (unmanaged by the ISP's NM).
    pub customer1: DeviceId,
    /// ISP ingress edge router.
    pub ingress: DeviceId,
    /// Upper core row (meshes; empty on rings).
    pub upper: Vec<DeviceId>,
    /// Lower core row (meshes; empty on rings).
    pub lower: Vec<DeviceId>,
    /// Ring core routers in cycle order (rings; empty on meshes).
    pub ring: Vec<DeviceId>,
    /// ISP egress edge router.
    pub egress: DeviceId,
    /// Customer router at site 2 (unmanaged).
    pub customer2: DeviceId,
    /// Host in customer site 2.
    pub host2: DeviceId,
    /// Fan-out customer host pairs — the endpoints of the k-th concurrent
    /// VPN goal, with real end-to-end traffic for every goal.
    pub fanout: Vec<(DeviceId, DeviceId)>,
    /// Every ISP router in the topology's own ordering
    /// ([`MeshTopology::routers`], captured at build time so the two crates
    /// cannot drift).
    routers: Vec<DeviceId>,
    /// Monotonic probe payload counter (each probe is distinct).
    probe_seq: u64,
}

/// Build a managed 2×k mesh with `pairs` fan-out customer host pairs over
/// the out-of-band management channel.
pub fn managed_mesh_fanout(k: usize, pairs: usize) -> ManagedMesh<OutOfBandChannel> {
    managed_mesh_fanout_with(k, pairs, OutOfBandChannel::new())
}

/// [`managed_mesh_fanout`] over an arbitrary management channel.
pub fn managed_mesh_fanout_with<C: ManagementChannel>(
    k: usize,
    pairs: usize,
    channel: C,
) -> ManagedMesh<C> {
    managed_from_mesh(topology::isp_mesh_fanout(k, pairs), channel)
}

/// Build a managed core ring (edges attached on opposite arcs) with `pairs`
/// fan-out customer host pairs.
pub fn managed_ring_fanout(k: usize, pairs: usize) -> ManagedMesh<OutOfBandChannel> {
    managed_from_mesh(topology::isp_ring_fanout(k, pairs), OutOfBandChannel::new())
}

fn managed_from_mesh<C: ManagementChannel>(topo: MeshTopology, channel: C) -> ManagedMesh<C> {
    let routers = topo.routers();
    let MeshTopology {
        mut net,
        host1,
        customer1,
        ingress,
        upper,
        lower,
        ring,
        egress,
        customer2,
        host2,
        fanout_pairs,
        core_ports,
    } = topo;

    // The NM's management station hangs off the ingress edge's free port,
    // like the chain's (the in-band channel floods over real links, so the
    // station needs a physical attachment).
    let station = net.add_device(Device::new("NMStation", DeviceRole::Host, 1));
    net.connect(
        (station, PortId(0)),
        (ingress, PortId(1)),
        LinkProperties::lan(),
    )
    .expect("the ingress edge keeps port 1 free for the station");

    let mut mn = ManagedNetwork::new(net, station, channel);
    for (&router, ports) in &core_ports {
        let device = mn.net.device(router).expect("ISP router exists");
        let plan = if router == ingress || router == egress {
            RouterPlan::edge(0, ports.clone())
        } else {
            RouterPlan::core(ports.clone())
        };
        let agent = build_router_agent(device, &plan);
        mn.add_agent(agent);
    }
    ManagedMesh {
        mn,
        host1,
        customer1,
        ingress,
        upper,
        lower,
        ring,
        egress,
        customer2,
        host2,
        fanout: fanout_pairs,
        routers,
        probe_seq: 0,
    }
}

impl<C: ManagementChannel> ManagedMesh<C> {
    /// Run the announce + discovery phase.
    pub fn discover(&mut self) {
        self.mn.announce_all();
        self.mn.discover();
    }

    /// The VPN goal between the edges' customer-facing interfaces (the same
    /// high-level goal as the chain's — the topology underneath is what
    /// changed).
    pub fn vpn_goal(&self) -> ConnectivityGoal {
        vpn_goal_between(&self.mn, self.ingress, self.egress)
    }

    /// The `k`-th fan-out pair's VPN goal.
    pub fn fanout_goal(&self, k: usize) -> ConnectivityGoal {
        assert!(k < self.fanout.len(), "fan-out pair {k} does not exist");
        fanout_classes(self.vpn_goal(), k)
    }

    /// The `k`-th fan-out pair's probe endpoints: `(source host,
    /// destination host, destination address)`.
    pub fn fanout_probe(&self, k: usize) -> (DeviceId, DeviceId, std::net::Ipv4Addr) {
        let (src, dst) = self.fanout[k];
        let (_, dst_ip) = topology::fanout_pair_hosts(k);
        (src, dst, dst_ip)
    }

    /// One end-to-end probe for the `k`-th fan-out pair; returns whether it
    /// was delivered.
    pub fn probe_pair(&mut self, k: usize) -> bool {
        let (src, dst, dst_ip) = self.fanout_probe(k);
        self.probe_seq += 1;
        let payload = format!("mesh{k}-probe-{}", self.probe_seq);
        GoalEndpoints { src, dst, dst_ip }.probe(&mut self.mn.net, payload.as_bytes())
    }

    /// All ISP routers (edges + core rows / ring), in the topology's order.
    pub fn routers(&self) -> &[DeviceId] {
        &self.routers
    }

    /// The first core-to-core hop of a goal's applied path, in path order —
    /// the natural target for a link-cut fault that a multipath repair must
    /// route around.  Falls back to any ISP-to-ISP hop (edge included) when
    /// the path has no core-to-core hop.
    pub fn applied_core_hop(&self, id: conman_core::nm::GoalId) -> Option<(DeviceId, DeviceId)> {
        let applied = self.mn.goals.get(id).and_then(|r| r.applied())?;
        let devices = applied.path.devices();
        let routers: std::collections::BTreeSet<DeviceId> = self.routers.iter().copied().collect();
        let core: std::collections::BTreeSet<DeviceId> = routers
            .iter()
            .copied()
            .filter(|d| *d != self.ingress && *d != self.egress)
            .collect();
        let hop = |set: &std::collections::BTreeSet<DeviceId>| {
            devices
                .windows(2)
                .find(|w| set.contains(&w[0]) && set.contains(&w[1]))
                .map(|w| (w[0], w[1]))
        };
        hop(&core).or_else(|| hop(&routers))
    }

    /// The simulator link between two adjacent ISP routers.
    pub fn link(&self, a: DeviceId, b: DeviceId) -> Option<netsim::link::LinkId> {
        self.mn.net.link_between(a, b)
    }
}

/// A managed version of the Figure 9 VLAN-tunnelling testbed.
pub struct ManagedVlanChain<C: ManagementChannel> {
    /// The managed network.
    pub mn: ManagedNetwork<C>,
    /// Customer router at site 1.
    pub customer1: DeviceId,
    /// Provider switches in path order.
    pub switches: Vec<DeviceId>,
    /// Customer router at site 2.
    pub customer2: DeviceId,
}

/// Build a managed VLAN chain with `n` provider switches.
pub fn managed_vlan_chain(n: usize) -> ManagedVlanChain<OutOfBandChannel> {
    let VlanChain {
        mut net,
        customer1,
        switches,
        customer2,
    } = topology::vlan_chain(n);
    let station = net.add_device(Device::new("NMStation", DeviceRole::Host, 1));
    let mut mn = ManagedNetwork::new(net, station, OutOfBandChannel::new());
    for (i, id) in switches.iter().enumerate() {
        let device = mn.net.device(*id).expect("switch exists");
        let mut ports = Vec::new();
        if i == 0 || i == n - 1 {
            ports.push(0);
        }
        if i > 0 {
            ports.push(1);
        }
        if i < n - 1 {
            ports.push(2);
        }
        let agent = build_vlan_switch_agent(device, &ports);
        mn.add_agent(agent);
    }
    ManagedVlanChain {
        mn,
        customer1,
        switches,
        customer2,
    }
}

impl<C: ManagementChannel> ManagedVlanChain<C> {
    /// Run the announce + discovery phase.
    pub fn discover(&mut self) {
        self.mn.announce_all();
        self.mn.discover();
    }

    /// The layer-2 VPN goal between the customer-facing ports of the first
    /// and last provider switch.
    pub fn vlan_goal(&self) -> ConnectivityGoal {
        let from = self
            .mn
            .nm
            .module_on_port(self.switches[0], PortId(0))
            .expect("ingress customer port ETH module (run discover() first)");
        let to = self
            .mn
            .nm
            .module_on_port(*self.switches.last().unwrap(), PortId(0))
            .expect("egress customer port ETH module");
        let mut goal = ConnectivityGoal::vpn(from, to);
        goal.l2_only = true;
        goal
    }

    /// Send a customer frame end to end and report delivery plus the
    /// encapsulations seen on the first provider trunk.
    pub fn send_customer_frame(&mut self, payload: &[u8]) -> (bool, Vec<String>) {
        self.mn.net.clear_trace();
        self.mn
            .net
            .send_udp(
                self.customer1,
                "10.0.0.2".parse().unwrap(),
                1111,
                2222,
                payload,
            )
            .expect("customer exists");
        self.mn.net.run_to_quiescence(100_000);
        let delivered = self
            .mn
            .net
            .device_mut(self.customer2)
            .unwrap()
            .take_delivered()
            .iter()
            .any(|d| d.payload == payload);
        let paths = self.mn.net.protocol_paths_from(self.switches[0]);
        (delivered, paths)
    }
}

/// A managed version of the Figure 2 GRE-tunnel testbed.
pub struct ManagedFigure2<C: ManagementChannel> {
    /// The managed network.
    pub mn: ManagedNetwork<C>,
    /// End device A.
    pub a: DeviceId,
    /// End device B.
    pub b: DeviceId,
    /// The layer-2 switch C.
    pub c: DeviceId,
    /// The router D.
    pub d: DeviceId,
}

/// Build the managed Figure 2 testbed (hosts A/B, switch C, router D).
pub fn managed_figure2() -> ManagedFigure2<OutOfBandChannel> {
    let topology::Figure2Testbed {
        mut net,
        a,
        b,
        c,
        d,
    } = topology::figure2();
    let station = net.add_device(Device::new("NMStation", DeviceRole::Host, 1));
    let mut mn = ManagedNetwork::new(net, station, OutOfBandChannel::new());
    for (id, domain) in [(a, "overlayA"), (b, "overlayA")] {
        let device = mn.net.device(id).expect("host exists");
        mn.add_agent(build_tunnel_host_agent(device, 0, domain));
    }
    {
        let device = mn.net.device(c).expect("switch exists");
        mn.add_agent(crate::builder::build_l2_switch_agent(device));
    }
    {
        let device = mn.net.device(d).expect("router exists");
        mn.add_agent(build_plain_router_agent(device, &[0, 1]));
    }
    ManagedFigure2 { mn, a, b, c, d }
}

impl<C: ManagementChannel> ManagedFigure2<C> {
    /// Run the announce + discovery phase.
    pub fn discover(&mut self) {
        self.mn.announce_all();
        self.mn.discover();
    }
}

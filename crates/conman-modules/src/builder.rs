//! Builders that attach CONMan management agents (with the right protocol
//! modules) to simulated devices, recreating the module maps of the paper's
//! Figures 2 and 4.

use crate::eth::EthModule;
use crate::gre::GreModule;
use crate::ip::IpModule;
use crate::mpls::MplsModule;
use crate::vlan::VlanModule;
use conman_core::agent::ManagementAgent;
use conman_core::ids::{ModuleId, ModuleKind, ModuleRef};
use netsim::device::{Device, PortId};
use std::net::Ipv4Addr;

/// Plan for an ISP router's module set (Figure 4(b)).
#[derive(Debug, Clone)]
pub(crate) struct RouterPlan {
    /// Customer-facing port, if this is an edge router.
    pub customer_port: Option<u32>,
    /// Core-facing ports.
    pub core_ports: Vec<u32>,
    /// Address domain of the customer VRF ("customer1").
    pub customer_domain: String,
    /// Instantiate a GRE module?
    pub with_gre: bool,
    /// Instantiate an MPLS module?
    pub with_mpls: bool,
}

impl RouterPlan {
    /// An edge router (Routers A and C in the paper).
    pub(crate) fn edge(customer_port: u32, core_ports: Vec<u32>) -> Self {
        RouterPlan {
            customer_port: Some(customer_port),
            core_ports,
            customer_domain: "customer1".to_string(),
            with_gre: true,
            with_mpls: true,
        }
    }

    /// A core router (Router B in the paper): no customer VRF, no GRE.
    pub(crate) fn core(core_ports: Vec<u32>) -> Self {
        RouterPlan {
            customer_port: None,
            core_ports,
            customer_domain: "customer1".to_string(),
            with_gre: false,
            with_mpls: true,
        }
    }
}

fn addr_on(device: &Device, port: u32) -> Ipv4Addr {
    device
        .config
        .address_on_port(port)
        .map(|c| c.addr)
        .unwrap_or(Ipv4Addr::UNSPECIFIED)
}

/// Build the management agent of an ISP router according to `plan`.
///
/// Module-id assignment is sequential; the customer-facing IP module (the
/// "virtual router" connected to the customer site) is created first so the
/// module map mirrors Figure 4(b).
pub(crate) fn build_router_agent(device: &Device, plan: &RouterPlan) -> ManagementAgent {
    let mut agent = ManagementAgent::new(device.id, device.name.clone());
    let mut next = 1u32;
    let mut next_id = || {
        let id = ModuleId(next);
        next += 1;
        id
    };

    // ETH modules: customer-facing first, then core-facing.
    let eth_up = vec![ModuleKind::Ip, ModuleKind::Mpls];
    if let Some(p) = plan.customer_port {
        let r = ModuleRef::new(ModuleKind::Eth, next_id(), device.id);
        agent.register(Box::new(EthModule::new(r, PortId(p), eth_up.clone())));
    }
    for p in &plan.core_ports {
        let r = ModuleRef::new(ModuleKind::Eth, next_id(), device.id);
        agent.register(Box::new(EthModule::new(r, PortId(*p), eth_up.clone())));
    }

    // Customer VRF IP module (edge routers only).
    if let Some(p) = plan.customer_port {
        let r = ModuleRef::new(ModuleKind::Ip, next_id(), device.id);
        agent.register(Box::new(IpModule::new(
            r,
            plan.customer_domain.clone(),
            addr_on(device, p),
        )));
    }
    // ISP IP module.
    let isp_primary = plan
        .core_ports
        .first()
        .map(|p| addr_on(device, *p))
        .unwrap_or(Ipv4Addr::UNSPECIFIED);
    let r = ModuleRef::new(ModuleKind::Ip, next_id(), device.id);
    agent.register(Box::new(IpModule::new(r, "isp", isp_primary)));

    if plan.with_gre {
        let r = ModuleRef::new(ModuleKind::Gre, next_id(), device.id);
        agent.register(Box::new(GreModule::new(r)));
    }
    if plan.with_mpls {
        let r = ModuleRef::new(ModuleKind::Mpls, next_id(), device.id);
        agent.register(Box::new(MplsModule::new(r)));
    }
    agent
}

/// Build the agent of a provider VLAN switch (Figure 9): one ETH module per
/// port (all of which can carry a VLAN module above them) plus one VLAN
/// module.
pub(crate) fn build_vlan_switch_agent(device: &Device, ports: &[u32]) -> ManagementAgent {
    let mut agent = ManagementAgent::new(device.id, device.name.clone());
    let mut next = 1u32;
    for p in ports {
        let r = ModuleRef::new(ModuleKind::Eth, ModuleId(next), device.id);
        next += 1;
        agent.register(Box::new(EthModule::new(
            r,
            PortId(*p),
            vec![ModuleKind::Vlan],
        )));
    }
    let r = ModuleRef::new(ModuleKind::Vlan, ModuleId(next), device.id);
    agent.register(Box::new(VlanModule::new(r)));
    agent
}

/// Build the agent of a plain layer-2 switch (device C of Figure 2): a single
/// ETH module spanning every port, capable of `[phy => phy]` switching.
pub(crate) fn build_l2_switch_agent(device: &Device) -> ManagementAgent {
    let mut agent = ManagementAgent::new(device.id, device.name.clone());
    let ports: Vec<PortId> = device.ports.iter().map(|p| PortId(p.index)).collect();
    let r = ModuleRef::new(ModuleKind::Eth, ModuleId(1), device.id);
    agent.register(Box::new(EthModule::layer2_switch(r, ports)));
    agent
}

/// Build the agent of an end host participating in a GRE tunnel (devices A
/// and B of Figure 2): an overlay IP module, a GRE module, an underlay IP
/// module and an ETH module.
pub(crate) fn build_tunnel_host_agent(
    device: &Device,
    port: u32,
    overlay_domain: &str,
) -> ManagementAgent {
    let mut agent = ManagementAgent::new(device.id, device.name.clone());
    let eth = ModuleRef::new(ModuleKind::Eth, ModuleId(1), device.id);
    agent.register(Box::new(EthModule::new(
        eth,
        PortId(port),
        vec![ModuleKind::Ip, ModuleKind::Mpls],
    )));
    let overlay = ModuleRef::new(ModuleKind::Ip, ModuleId(2), device.id);
    agent.register(Box::new(IpModule::new(
        overlay,
        overlay_domain,
        addr_on(device, port),
    )));
    let underlay = ModuleRef::new(ModuleKind::Ip, ModuleId(3), device.id);
    agent.register(Box::new(IpModule::new(
        underlay,
        "isp",
        addr_on(device, port),
    )));
    let gre = ModuleRef::new(ModuleKind::Gre, ModuleId(4), device.id);
    agent.register(Box::new(GreModule::new(gre)));
    agent
}

/// Build the agent of the Figure 2 router D: two ETH modules and one ISP IP
/// module.
pub(crate) fn build_plain_router_agent(device: &Device, ports: &[u32]) -> ManagementAgent {
    let mut agent = ManagementAgent::new(device.id, device.name.clone());
    let mut next = 1u32;
    for p in ports {
        let r = ModuleRef::new(ModuleKind::Eth, ModuleId(next), device.id);
        next += 1;
        agent.register(Box::new(EthModule::new(
            r,
            PortId(*p),
            vec![ModuleKind::Ip, ModuleKind::Mpls],
        )));
    }
    let primary = ports
        .first()
        .map(|p| addr_on(device, *p))
        .unwrap_or(Ipv4Addr::UNSPECIFIED);
    let r = ModuleRef::new(ModuleKind::Ip, ModuleId(next), device.id);
    agent.register(Box::new(IpModule::new(r, "isp", primary)));
    agent
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::device::DeviceRole;
    use netsim::ipv4::Ipv4Cidr;

    #[test]
    fn edge_router_has_the_figure4_module_set() {
        let mut d = Device::new("RouterA", DeviceRole::Router, 3);
        d.config
            .assign_address(0, "192.168.0.2/24".parse::<Ipv4Cidr>().unwrap());
        d.config
            .assign_address(2, "204.9.168.1/24".parse::<Ipv4Cidr>().unwrap());
        let agent = build_router_agent(&d, &RouterPlan::edge(0, vec![2]));
        // ETH a, ETH b, IP g, IP h, GRE l, MPLS o
        assert_eq!(agent.module_count(), 6);
        let kinds: Vec<ModuleKind> = agent.module_refs().into_iter().map(|r| r.kind).collect();
        assert_eq!(kinds.iter().filter(|k| **k == ModuleKind::Eth).count(), 2);
        assert_eq!(kinds.iter().filter(|k| **k == ModuleKind::Ip).count(), 2);
        assert!(kinds.contains(&ModuleKind::Gre));
        assert!(kinds.contains(&ModuleKind::Mpls));
    }

    #[test]
    fn core_router_has_no_customer_vrf_or_gre() {
        let mut d = Device::new("RouterB", DeviceRole::Router, 3);
        d.config
            .assign_address(1, "204.9.168.2/24".parse::<Ipv4Cidr>().unwrap());
        d.config
            .assign_address(2, "204.9.169.2/24".parse::<Ipv4Cidr>().unwrap());
        let agent = build_router_agent(&d, &RouterPlan::core(vec![1, 2]));
        // ETH c, ETH d, IP i, MPLS p
        assert_eq!(agent.module_count(), 4);
        let kinds: Vec<ModuleKind> = agent.module_refs().into_iter().map(|r| r.kind).collect();
        assert!(!kinds.contains(&ModuleKind::Gre));
        assert_eq!(kinds.iter().filter(|k| **k == ModuleKind::Ip).count(), 1);
    }

    #[test]
    fn vlan_switch_and_l2_switch_agents() {
        let d = Device::new("SwitchA", DeviceRole::Switch, 3);
        let agent = build_vlan_switch_agent(&d, &[0, 1, 2]);
        assert_eq!(agent.module_count(), 4);
        let agent = build_l2_switch_agent(&d);
        assert_eq!(agent.module_count(), 1);
    }

    /// A drop the engine records is attributable to a module: every
    /// `DropReason` lies in some module's fault domain, so the frontier
    /// walk can refine any dropping device down to a module.
    #[test]
    fn every_drop_reason_has_an_owning_module() {
        use conman_core::module::ProtocolModule;
        use netsim::stats::DropReason::{self, *};
        let at = |kind| ModuleRef::new(kind, ModuleId(1), netsim::device::DeviceId::from_raw(1));
        let modules: [Box<dyn ProtocolModule>; 5] = [
            Box::new(EthModule::new(at(ModuleKind::Eth), PortId(0), vec![])),
            Box::new(IpModule::new(
                at(ModuleKind::Ip),
                "isp",
                Ipv4Addr::LOCALHOST,
            )),
            Box::new(GreModule::new(at(ModuleKind::Gre))),
            Box::new(MplsModule::new(at(ModuleKind::Mpls))),
            Box::new(VlanModule::new(at(ModuleKind::Vlan))),
        ];
        let claimed: Vec<DropReason> = modules
            .iter()
            .flat_map(|m| m.fault_domain().iter().copied())
            .collect();
        // No wildcard arm: a reason netsim adds does not compile here until
        // it is listed, and then it needs an owner.
        let listed = |reason: DropReason| match reason {
            NoRoute | TtlExpired | Filtered | Malformed | TunnelMismatch | NoLabel | NotForUs
            | PortDown | ForwardingDisabled | MtuExceeded => reason,
        };
        for reason in [
            NoRoute,
            TtlExpired,
            Filtered,
            Malformed,
            TunnelMismatch,
            NoLabel,
            NotForUs,
            PortDown,
            ForwardingDisabled,
            MtuExceeded,
        ] {
            assert!(
                claimed.contains(&listed(reason)),
                "{reason:?} is in no module's fault domain"
            );
        }
    }
}

//! "Today's" configuration: the Linux scripts of Figures 7(a) and 8(a).
//!
//! These generators produce the same command sequences a human administrator
//! (or a conventional management application) would have to write, with each
//! token classified for the Table V comparison, and they can also apply the
//! GRE configuration directly to the simulated data plane so the baseline is
//! functionally checkable.

use crate::classify::{ClassifiedScript, TokenKind};
use netsim::config::TunnelConfig;
use netsim::device::Device;
use netsim::ipv4::Ipv4Cidr;
use netsim::route::{PolicyRule, Route, RouteTableId, RouteTarget, RuleSelector};
use std::net::Ipv4Addr;

/// Parameters of the GRE VPN the ISP wants to configure at one edge router
/// (router A of Figure 4 in the forward direction).
#[derive(Debug, Clone)]
pub struct GreVpnParams {
    /// Local tunnel endpoint (204.9.168.1).
    pub local: Ipv4Addr,
    /// Remote tunnel endpoint (204.9.169.1).
    pub remote: Ipv4Addr,
    /// Next hop towards the remote endpoint (204.9.168.2).
    pub nexthop: Ipv4Addr,
    /// Remote customer site prefix (10.0.2.0/24).
    pub remote_site: Ipv4Cidr,
    /// Local customer site prefix (10.0.1.0/24).
    pub local_site: Ipv4Cidr,
    /// Gateway of the local customer site (192.168.0.1).
    pub local_gateway: Ipv4Addr,
    /// GRE key for received packets.
    pub ikey: u32,
    /// GRE key for transmitted packets.
    pub okey: u32,
    /// Customer-facing port index.
    pub customer_port: u32,
    /// Core-facing port index.
    pub core_port: u32,
}

impl GreVpnParams {
    /// The exact values of Figure 7(a) (router A of the Figure 4 testbed).
    pub fn figure7_router_a() -> Self {
        GreVpnParams {
            local: "204.9.168.1".parse().unwrap(),
            remote: "204.9.169.1".parse().unwrap(),
            nexthop: "204.9.168.2".parse().unwrap(),
            remote_site: "10.0.2.0/24".parse().unwrap(),
            local_site: "10.0.1.0/24".parse().unwrap(),
            local_gateway: "192.168.0.1".parse().unwrap(),
            ikey: 1001,
            okey: 2001,
            customer_port: 0,
            core_port: 2,
        }
    }
}

/// Generate the Figure 7(a) script for one edge router.
pub fn gre_script_today(p: &GreVpnParams) -> ClassifiedScript {
    use TokenKind::*;
    let mut s = ClassifiedScript::new("GRE today");
    let remote = p.remote.to_string();
    let local = p.local.to_string();
    let nexthop = p.nexthop.to_string();
    let remote_site = p.remote_site.to_string();
    let gw = p.local_gateway.to_string();
    let ikey = p.ikey.to_string();
    let okey = p.okey.to_string();
    let core_if = format!("eth{}", p.core_port);
    let cust_if = format!("eth{}", p.customer_port);

    s.line(vec![
        ("insmod", GenericCommand),
        ("/lib/modules/2.6.14-2/ip_gre.ko", SpecificVariable),
    ]);
    s.line(vec![
        ("ip tunnel add", SpecificCommand),
        ("name", Syntax),
        ("greA", GenericVariable),
        ("mode gre", SpecificCommand),
        ("remote", Syntax),
        (&remote, SpecificVariable),
        ("local", Syntax),
        (&local, SpecificVariable),
        ("ikey", Syntax),
        (&ikey, SpecificVariable),
        ("okey", Syntax),
        (&okey, SpecificVariable),
        ("icsum ocsum iseq oseq", SpecificCommand),
    ]);
    s.line(vec![
        ("ifconfig", SpecificCommand),
        ("greA", GenericVariable),
        ("192.168.3.1", SpecificVariable),
    ]);
    s.line(vec![
        ("echo 1 >", GenericCommand),
        ("/proc/sys/net/ipv4/ip_forward", SpecificVariable),
    ]);
    s.line(vec![
        ("echo 202 >>", GenericCommand),
        ("tun-1-2", GenericVariable),
        ("/etc/iproute2/rt_tables", GenericVariable),
    ]);
    s.line(vec![
        ("ip rule add", SpecificCommand),
        ("to", Syntax),
        (&remote_site, SpecificVariable),
        ("table", Syntax),
        ("tun-1-2", GenericVariable),
    ]);
    s.line(vec![
        ("ip route add", SpecificCommand),
        ("default", GenericVariable),
        ("dev", Syntax),
        ("greA", GenericVariable),
        ("table", Syntax),
        ("tun-1-2", GenericVariable),
    ]);
    s.line(vec![
        ("echo 203 >>", GenericCommand),
        ("tun-2-1", GenericVariable),
        ("/etc/iproute2/rt_tables", GenericVariable),
    ]);
    s.line(vec![
        ("ip rule add", SpecificCommand),
        ("iif", Syntax),
        ("greA", GenericVariable),
        ("table", Syntax),
        ("tun-2-1", GenericVariable),
    ]);
    s.line(vec![
        ("ip route add", SpecificCommand),
        ("default", GenericVariable),
        ("via", Syntax),
        (&gw, SpecificVariable),
        ("dev", Syntax),
        (&cust_if, GenericVariable),
        ("table", Syntax),
        ("tun-2-1", GenericVariable),
    ]);
    s.line(vec![
        ("ip route add", SpecificCommand),
        ("to", Syntax),
        (&remote, SpecificVariable),
        ("via", Syntax),
        (&nexthop, SpecificVariable),
        ("dev", Syntax),
        (&core_if, GenericVariable),
    ]);
    s
}

/// Apply the Figure 7(a) configuration directly to a simulated edge router —
/// what "today's" management plane ultimately does to the device.  No caller
/// outside this crate yet: used by ROADMAP item 1's differential clause
/// (CONMan-configured router A equals this one).
pub fn apply_gre_today(device: &mut Device, p: &GreVpnParams) {
    device.config.ip_forwarding = true;
    let mut t = TunnelConfig::gre(p.local, p.remote);
    t.ikey = Some(p.ikey);
    t.okey = Some(p.okey);
    t.icsum = true;
    t.ocsum = true;
    t.iseq = true;
    t.oseq = true;
    let tunnel_id = device.config.add_tunnel(t);

    let t12 = RouteTableId(202);
    let t21 = RouteTableId(203);
    device.config.rib.table_mut(t12).add(Route {
        dest: Ipv4Cidr::DEFAULT,
        target: RouteTarget::Tunnel { tunnel: tunnel_id },
    });
    device.config.rib.add_rule(PolicyRule {
        priority: 100,
        selector: RuleSelector::ToPrefix(p.remote_site),
        table: t12,
    });
    device.config.rib.table_mut(t21).add(Route {
        dest: Ipv4Cidr::DEFAULT,
        target: RouteTarget::Port {
            port: p.customer_port,
            via: Some(p.local_gateway),
        },
    });
    device.config.rib.add_rule(PolicyRule {
        priority: 101,
        selector: RuleSelector::FromTunnel(tunnel_id),
        table: t21,
    });
    device.config.rib.add_main(Route {
        dest: Ipv4Cidr::new(p.remote, 32),
        target: RouteTarget::Port {
            port: p.core_port,
            via: Some(p.nexthop),
        },
    });
    // Local site reachability for decapsulated reverse traffic.
    device.config.rib.add_main(Route {
        dest: p.local_site,
        target: RouteTarget::Port {
            port: p.customer_port,
            via: Some(p.local_gateway),
        },
    });
}

/// Generate the Figure 8(a) MPLS script for the ingress router.
pub fn mpls_script_today() -> ClassifiedScript {
    use TokenKind::*;
    let mut s = ClassifiedScript::new("MPLS today");
    s.line(vec![
        ("modprobe", GenericCommand),
        ("mpls", SpecificVariable),
    ]);
    s.line(vec![
        ("modprobe", GenericCommand),
        ("mpls4", SpecificVariable),
    ]);
    s.line(vec![
        ("mpls labelspace set", SpecificCommand),
        ("dev", Syntax),
        ("eth2", GenericVariable),
        ("labelspace", Syntax),
        ("0", SpecificVariable),
    ]);
    s.line(vec![
        ("mpls ilm add", SpecificCommand),
        ("label gen", Syntax),
        ("10001", SpecificVariable),
        ("labelspace", Syntax),
        ("0", SpecificVariable),
    ]);
    s.line(vec![
        ("KEY-S2-S1=", GenericVariable),
        ("mpls nhlfe add", SpecificCommand),
        ("key 0 mtu", Syntax),
        ("1500", SpecificVariable),
        ("instructions nexthop", Syntax),
        ("eth1", GenericVariable),
        ("ipv4", Syntax),
        ("192.168.0.1", SpecificVariable),
    ]);
    s.line(vec![
        ("mpls xc add", SpecificCommand),
        ("ilm label gen", Syntax),
        ("10001", SpecificVariable),
        ("ilm labelspace", Syntax),
        ("0", SpecificVariable),
        ("nhlfe key", Syntax),
        ("KEY-S2-S1", GenericVariable),
    ]);
    s.line(vec![
        ("KEY-S1-S2=", GenericVariable),
        ("mpls nhlfe add", SpecificCommand),
        ("key 0 mtu", Syntax),
        ("1500", SpecificVariable),
        ("instructions push gen", Syntax),
        ("2001", SpecificVariable),
        ("nexthop", Syntax),
        ("eth2", GenericVariable),
        ("ipv4", Syntax),
        ("204.9.168.2", SpecificVariable),
    ]);
    s.line(vec![
        ("echo 1 >", GenericCommand),
        ("/proc/sys/net/ipv4/ip_forward", SpecificVariable),
    ]);
    s.line(vec![
        ("ip route add", SpecificCommand),
        ("10.0.2.0/24", SpecificVariable),
        ("via", Syntax),
        ("204.9.168.2", SpecificVariable),
        ("mpls", Syntax),
        ("KEY-S1-S2", GenericVariable),
    ]);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gre_today_counts_are_close_to_table5() {
        let s = gre_script_today(&GreVpnParams::figure7_router_a());
        let c = s.counts();
        // Table V reports (T, GRE): 1 generic / 6 specific commands,
        // 9 generic / 11 specific state variables.  Our mechanical counting
        // of the same script lands in the same regime: far more
        // protocol-specific items than CONMan's (0 specific commands).
        assert!(c.specific_commands >= 4, "{c:?}");
        assert!(c.specific_variables >= 8, "{c:?}");
        assert!(c.generic_commands <= 4, "{c:?}");
        assert!(s.text().contains("ikey 1001"));
    }

    #[test]
    fn mpls_today_counts() {
        let c = mpls_script_today().counts();
        assert!(c.specific_commands >= 4);
        assert!(c.specific_variables >= 6);
    }

    #[test]
    fn apply_gre_today_installs_tunnel_and_routes() {
        use netsim::device::DeviceRole;
        let mut d = Device::new("RouterA", DeviceRole::Router, 3);
        d.config
            .assign_address(0, "192.168.0.2/24".parse().unwrap());
        d.config
            .assign_address(2, "204.9.168.1/24".parse().unwrap());
        apply_gre_today(&mut d, &GreVpnParams::figure7_router_a());
        assert!(d.config.ip_forwarding);
        assert_eq!(d.config.tunnels().count(), 1);
        let t = d.config.tunnels().next().unwrap();
        assert_eq!(t.okey, Some(2001));
        assert_eq!(t.remote, "204.9.169.1".parse::<Ipv4Addr>().unwrap());
        assert!(d.config.rib.rules().len() >= 2);
    }
}

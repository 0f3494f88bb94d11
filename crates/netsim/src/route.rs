//! Routing state: longest-prefix-match tables plus iproute2-style policy
//! rules (`ip rule add ... table ...`), which the paper's Figure 7(a) script
//! uses to steer customer traffic into tunnels.

use crate::ipv4::Ipv4Cidr;
use crate::mpls::NhlfeKey;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Identifier of a routing table.  Table 254 is "main", as on Linux.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RouteTableId(pub u32);

impl RouteTableId {
    /// The main routing table.
    pub const MAIN: RouteTableId = RouteTableId(254);
}

/// Where a route sends matching packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouteTarget {
    /// Send out a physical port, optionally via a gateway.
    Port {
        /// Egress port index.
        port: u32,
        /// Next-hop gateway; `None` means the destination is on-link.
        via: Option<Ipv4Addr>,
    },
    /// Send into a locally configured GRE (or IP-IP) tunnel device.
    Tunnel {
        /// Tunnel identifier in the device configuration.
        tunnel: u32,
    },
    /// Push the packet into an MPLS LSP described by an NHLFE.
    Mpls {
        /// NHLFE key holding the label operation and next hop.
        nhlfe: NhlfeKey,
    },
}

/// A single route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Route {
    /// Destination prefix.
    pub dest: Ipv4Cidr,
    /// Forwarding target.
    pub target: RouteTarget,
}

/// One routing table with longest-prefix-match lookup.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouteTable {
    routes: Vec<Route>,
}

impl RouteTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a route (duplicates by prefix replace the earlier entry).
    pub fn add(&mut self, route: Route) {
        if let Some(existing) = self.routes.iter_mut().find(|r| {
            r.dest.network() == route.dest.network() && r.dest.prefix_len == route.dest.prefix_len
        }) {
            *existing = route;
        } else {
            self.routes.push(route);
        }
    }

    /// Remove routes for an exact prefix, returning how many were removed.
    pub fn remove(&mut self, dest: Ipv4Cidr) -> usize {
        let before = self.routes.len();
        self.routes.retain(|r| {
            !(r.dest.network() == dest.network() && r.dest.prefix_len == dest.prefix_len)
        });
        before - self.routes.len()
    }

    /// Longest-prefix-match lookup.
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<&Route> {
        self.routes
            .iter()
            .filter(|r| r.dest.contains(dst))
            .max_by_key(|r| r.dest.prefix_len)
    }

    /// All routes (for showActual-style reporting).
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }

    /// Number of routes in the table.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

/// What a policy rule matches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RuleSelector {
    /// `ip rule add to <prefix>`.
    ToPrefix(Ipv4Cidr),
    /// `ip rule add from <prefix>`.
    FromPrefix(Ipv4Cidr),
    /// `ip rule add iif <tunnel>` — packets that arrived from a tunnel.
    FromTunnel(u32),
    /// `ip rule add iif <port>` — packets that arrived on a physical port.
    FromPort(u32),
    /// Match everything.
    All,
}

/// A policy-routing rule selecting which table to consult.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyRule {
    /// Lower priorities are evaluated first.
    pub priority: u32,
    /// Match condition.
    pub selector: RuleSelector,
    /// Table to look up when the rule matches.
    pub table: RouteTableId,
}

/// The interface a packet arrived on, for rule matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IncomingIf {
    /// Originated locally.
    Local,
    /// Arrived on a physical port.
    Port(u32),
    /// Arrived decapsulated from a tunnel.
    Tunnel(u32),
}

/// The complete routing information base of a device: named tables plus
/// policy rules, with the main table consulted last (as Linux does with its
/// implicit priority-32766 rule).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Rib {
    tables: BTreeMap<RouteTableId, RouteTable>,
    rules: Vec<PolicyRule>,
    /// Human-readable table names (`echo 202 tun-1-2 >> rt_tables`).
    pub table_names: BTreeMap<RouteTableId, String>,
}

impl Rib {
    /// Create an empty RIB with an empty main table.
    pub fn new() -> Self {
        let mut rib = Rib::default();
        rib.tables.insert(RouteTableId::MAIN, RouteTable::new());
        rib
    }

    /// Access (creating if needed) a table.
    pub fn table_mut(&mut self, id: RouteTableId) -> &mut RouteTable {
        self.tables.entry(id).or_default()
    }

    /// Access a table read-only.
    pub fn table(&self, id: RouteTableId) -> Option<&RouteTable> {
        self.tables.get(&id)
    }

    /// Add a route to the main table.
    pub fn add_main(&mut self, route: Route) {
        self.table_mut(RouteTableId::MAIN).add(route);
    }

    /// Register a named table.
    pub fn name_table(&mut self, id: RouteTableId, name: impl Into<String>) {
        self.table_names.insert(id, name.into());
        self.tables.entry(id).or_default();
    }

    /// Add a policy rule, after every rule of lower or equal priority: rules
    /// stay in priority order, equal priorities in insertion order.  A core
    /// router holds thousands of rules, so the rule goes in place rather
    /// than the list being re-sorted.
    pub fn add_rule(&mut self, rule: PolicyRule) {
        let at = self.rules.partition_point(|r| r.priority <= rule.priority);
        self.rules.insert(at, rule);
    }

    /// Remove every policy rule pointing at `table` with the given priority
    /// (the inverse of `add_rule`; used by module `delete` handlers).
    /// Returns how many rules were removed.
    pub fn remove_rule(&mut self, priority: u32, table: RouteTableId) -> usize {
        let before = self.rules.len();
        self.rules
            .retain(|r| !(r.priority == priority && r.table == table));
        before - self.rules.len()
    }

    /// Drop a whole table (and its name).  The main table is never dropped.
    pub fn drop_table(&mut self, id: RouteTableId) {
        if id != RouteTableId::MAIN {
            self.tables.remove(&id);
            self.table_names.remove(&id);
        }
    }

    /// All rules in priority order.
    pub fn rules(&self) -> &[PolicyRule] {
        &self.rules
    }

    /// All tables.
    pub fn tables(&self) -> impl Iterator<Item = (RouteTableId, &RouteTable)> {
        self.tables.iter().map(|(id, t)| (*id, t))
    }

    /// Route a packet: evaluate policy rules in priority order, falling back
    /// to the main table.  No caller outside netsim yet: used by ROADMAP item
    /// 6c's `netsim.edge_lookup_us` row, as [`DeviceConfig::is_local_address`]
    /// is.
    ///
    /// [`DeviceConfig::is_local_address`]: crate::config::DeviceConfig::is_local_address
    pub fn lookup(&self, dst: Ipv4Addr, src: Ipv4Addr, iif: IncomingIf) -> Option<&Route> {
        for rule in &self.rules {
            let matches = match rule.selector {
                RuleSelector::ToPrefix(p) => p.contains(dst),
                RuleSelector::FromPrefix(p) => p.contains(src),
                RuleSelector::FromTunnel(t) => iif == IncomingIf::Tunnel(t),
                RuleSelector::FromPort(p) => iif == IncomingIf::Port(p),
                RuleSelector::All => true,
            };
            if matches {
                if let Some(route) = self.tables.get(&rule.table).and_then(|t| t.lookup(dst)) {
                    return Some(route);
                }
            }
        }
        self.tables
            .get(&RouteTableId::MAIN)
            .and_then(|t| t.lookup(dst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cidr(s: &str) -> Ipv4Cidr {
        s.parse().unwrap()
    }

    #[test]
    fn lpm_prefers_longer_prefix() {
        let mut t = RouteTable::new();
        t.add(Route {
            dest: cidr("10.0.0.0/8"),
            target: RouteTarget::Port { port: 1, via: None },
        });
        t.add(Route {
            dest: cidr("10.0.2.0/24"),
            target: RouteTarget::Port { port: 2, via: None },
        });
        let r = t.lookup(Ipv4Addr::new(10, 0, 2, 9)).unwrap();
        assert!(matches!(r.target, RouteTarget::Port { port: 2, .. }));
        let r = t.lookup(Ipv4Addr::new(10, 9, 9, 9)).unwrap();
        assert!(matches!(r.target, RouteTarget::Port { port: 1, .. }));
        assert!(t.lookup(Ipv4Addr::new(192, 168, 1, 1)).is_none());
    }

    #[test]
    fn add_replaces_same_prefix() {
        let mut t = RouteTable::new();
        t.add(Route {
            dest: cidr("0.0.0.0/0"),
            target: RouteTarget::Port { port: 1, via: None },
        });
        t.add(Route {
            dest: cidr("0.0.0.0/0"),
            target: RouteTarget::Tunnel { tunnel: 3 },
        });
        assert_eq!(t.len(), 1);
        assert!(matches!(
            t.lookup(Ipv4Addr::new(1, 1, 1, 1)).unwrap().target,
            RouteTarget::Tunnel { tunnel: 3 }
        ));
        assert_eq!(t.remove(cidr("0.0.0.0/0")), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn policy_rules_mirror_figure7() {
        // Figure 7(a): traffic to 10.0.2.0/24 goes to table tun-1-2 whose
        // default route is the GRE tunnel; traffic arriving from the tunnel
        // uses table tun-2-1 whose default route is the customer port.
        let mut rib = Rib::new();
        let t12 = RouteTableId(202);
        let t21 = RouteTableId(203);
        rib.name_table(t12, "tun-1-2");
        rib.name_table(t21, "tun-2-1");
        rib.table_mut(t12).add(Route {
            dest: Ipv4Cidr::DEFAULT,
            target: RouteTarget::Tunnel { tunnel: 1 },
        });
        rib.table_mut(t21).add(Route {
            dest: Ipv4Cidr::DEFAULT,
            target: RouteTarget::Port { port: 0, via: None },
        });
        rib.add_rule(PolicyRule {
            priority: 100,
            selector: RuleSelector::ToPrefix(cidr("10.0.2.0/24")),
            table: t12,
        });
        rib.add_rule(PolicyRule {
            priority: 101,
            selector: RuleSelector::FromTunnel(1),
            table: t21,
        });
        rib.add_main(Route {
            dest: cidr("204.9.169.1/32"),
            target: RouteTarget::Port {
                port: 2,
                via: Some(Ipv4Addr::new(204, 9, 168, 2)),
            },
        });

        // Customer packet to site 2 -> tunnel.
        let r = rib
            .lookup(
                Ipv4Addr::new(10, 0, 2, 5),
                Ipv4Addr::new(10, 0, 1, 5),
                IncomingIf::Port(0),
            )
            .unwrap();
        assert!(matches!(r.target, RouteTarget::Tunnel { tunnel: 1 }));

        // Decapsulated packet from the tunnel -> customer port.
        let r = rib
            .lookup(
                Ipv4Addr::new(10, 0, 1, 5),
                Ipv4Addr::new(10, 0, 2, 5),
                IncomingIf::Tunnel(1),
            )
            .unwrap();
        assert!(matches!(r.target, RouteTarget::Port { port: 0, .. }));

        // The tunnel endpoint itself resolves via the main table.
        let r = rib
            .lookup(
                Ipv4Addr::new(204, 9, 169, 1),
                Ipv4Addr::new(204, 9, 168, 1),
                IncomingIf::Local,
            )
            .unwrap();
        assert!(matches!(r.target, RouteTarget::Port { port: 2, .. }));
    }

    #[test]
    fn rule_priority_order_matters() {
        let mut rib = Rib::new();
        let a = RouteTableId(10);
        let b = RouteTableId(20);
        rib.table_mut(a).add(Route {
            dest: Ipv4Cidr::DEFAULT,
            target: RouteTarget::Port { port: 1, via: None },
        });
        rib.table_mut(b).add(Route {
            dest: Ipv4Cidr::DEFAULT,
            target: RouteTarget::Port { port: 2, via: None },
        });
        rib.add_rule(PolicyRule {
            priority: 200,
            selector: RuleSelector::All,
            table: b,
        });
        rib.add_rule(PolicyRule {
            priority: 100,
            selector: RuleSelector::All,
            table: a,
        });
        let r = rib
            .lookup(
                Ipv4Addr::new(1, 2, 3, 4),
                Ipv4Addr::new(5, 6, 7, 8),
                IncomingIf::Local,
            )
            .unwrap();
        assert!(matches!(r.target, RouteTarget::Port { port: 1, .. }));
    }

    #[test]
    fn rules_stay_in_priority_order_and_equal_priorities_in_insertion_order() {
        let mut rib = Rib::new();
        let rule = |priority, table| PolicyRule {
            priority,
            selector: RuleSelector::All,
            table: RouteTableId(table),
        };
        for (priority, table) in [(200, 1), (100, 2), (200, 3), (50, 4), (100, 5), (200, 6)] {
            rib.add_rule(rule(priority, table));
        }
        let order: Vec<(u32, u32)> = rib
            .rules()
            .iter()
            .map(|r| (r.priority, r.table.0))
            .collect();
        assert_eq!(
            order,
            [(50, 4), (100, 2), (100, 5), (200, 1), (200, 3), (200, 6)]
        );
    }
}

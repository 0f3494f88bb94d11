//! Routing state: longest-prefix-match tables plus iproute2-style policy
//! rules (`ip rule add ... table ...`), which the paper's Figure 7(a) script
//! uses to steer customer traffic into tunnels.
//!
//! The engine looks both up for every packet it routes, and a fan-out edge
//! router holds a route and a rule per goal, so neither lookup walks its
//! table.  Two sorted orders make that possible:
//!
//! * a [`RouteTable`] keeps its routes sorted by prefix length, longest
//!   first, then by network, so a lookup is one binary search per prefix
//!   length present;
//! * a [`Rib`] keeps, beside its priority-ordered rules, the
//!   `(32 − length, network, priority)` of every `to <prefix>` rule, sorted,
//!   and the sorted priorities of every other rule, so a lookup evaluates
//!   only the rules at priorities that can match.
//!
//! Both orders are functions of the content alone, so what is compared is
//! content only: the rule indexes are not.

use crate::ipv4::Ipv4Cidr;
use crate::mpls::NhlfeKey;
use crate::stats::LookupWork;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Identifier of a routing table.  Table 254 is "main", as on Linux.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RouteTableId(pub u32);

impl RouteTableId {
    /// The main routing table.
    pub const MAIN: RouteTableId = RouteTableId(254);
}

/// Where a route sends matching packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Destination prefix.
    pub dest: Ipv4Cidr,
    /// Forwarding target.
    pub target: RouteTarget,
}

/// `(32 − prefix length, network)`: the order both indexes keep, longest
/// prefix first.  Host bits do not count, as they do not on a match.
fn prefix_key(prefix: Ipv4Cidr) -> (u8, u32) {
    (32 - prefix.prefix_len, u32::from(prefix.network()))
}

/// The key a prefix of `len` bits containing `addr` has.
fn key_of(addr: Ipv4Addr, len: u8) -> (u8, u32) {
    prefix_key(Ipv4Cidr {
        addr,
        prefix_len: len,
    })
}

/// One routing table with longest-prefix-match lookup.
///
/// Invariant: `routes` is sorted by prefix length, longest first, then by
/// network, and holds at most one route per prefix (its network and length),
/// so the routes containing an address have distinct lengths and the first
/// of them is the longest match.
///
/// A table's first route is allocated exactly, without the slack a `Vec`
/// gives its first push: most tables are a switch rule's derived table,
/// which holds one default route for as long as it lives.  A table that
/// grows past one route grows as a `Vec` does.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteTable {
    routes: Vec<Route>,
}

impl RouteTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Where a route for `dest` is (`Ok`) or would go (`Err`).
    fn position(&self, dest: Ipv4Cidr) -> Result<usize, usize> {
        let key = prefix_key(dest);
        self.routes
            .binary_search_by_key(&key, |r| prefix_key(r.dest))
    }

    /// Add a route (duplicates by prefix replace the earlier entry).
    pub fn add(&mut self, route: Route) {
        match self.position(route.dest) {
            Ok(at) => self.routes[at] = route,
            Err(at) => {
                if self.routes.capacity() == 0 {
                    self.routes.reserve_exact(1);
                }
                self.routes.insert(at, route);
            }
        }
    }

    /// Remove routes for an exact prefix, returning how many were removed.
    pub fn remove(&mut self, dest: Ipv4Cidr) -> usize {
        match self.position(dest) {
            Ok(at) => {
                self.routes.remove(at);
                1
            }
            Err(_) => 0,
        }
    }

    /// Longest-prefix-match lookup.
    pub fn lookup(&self, dst: Ipv4Addr) -> Option<&Route> {
        self.lookup_counting(dst, &mut 0)
    }

    /// [`Self::lookup`], adding to `examined` every route it compared.  It
    /// visits the prefix lengths present from the longest down, and within
    /// one length binary-searches for the one network that could hold `dst`.
    pub(crate) fn lookup_counting(&self, dst: Ipv4Addr, examined: &mut u64) -> Option<&Route> {
        let mut rest = &self.routes[..];
        while let Some(first) = rest.first() {
            let len = first.dest.prefix_len;
            let want = key_of(dst, len);
            let at = rest.partition_point(|r| {
                *examined += 1;
                prefix_key(r.dest) < want
            });
            if let Some(route) = rest.get(at).filter(|r| prefix_key(r.dest) == want) {
                return Some(route);
            }
            rest = &rest[at..];
            let same_len = rest.partition_point(|r| {
                *examined += 1;
                r.dest.prefix_len == len
            });
            rest = &rest[same_len..];
        }
        None
    }

    /// All routes, longest prefix first and, within one length, in network
    /// order (for showActual-style reporting).
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyRule {
    /// Lower priorities are evaluated first.
    pub priority: u32,
    /// Match condition.
    pub selector: RuleSelector,
    /// Table to look up when the rule matches.
    pub table: RouteTableId,
}

/// The interface a packet arrived on, for rule matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncomingIf {
    /// Originated locally.
    Local,
    /// Arrived on a physical port.
    Port(u32),
    /// Arrived decapsulated from a tunnel.
    Tunnel(u32),
}

impl PolicyRule {
    /// Does the rule select a packet to `dst` from `src` that came in on
    /// `iif`?
    fn selects(&self, dst: Ipv4Addr, src: Ipv4Addr, iif: IncomingIf) -> bool {
        match self.selector {
            RuleSelector::ToPrefix(p) => p.contains(dst),
            RuleSelector::FromPrefix(p) => p.contains(src),
            RuleSelector::FromTunnel(t) => iif == IncomingIf::Tunnel(t),
            RuleSelector::FromPort(p) => iif == IncomingIf::Port(p),
            RuleSelector::All => true,
        }
    }
}

/// A `to <prefix>` rule's entry in [`PolicyRules::to_prefix`]:
/// `(32 − length, network, priority)`.
type PrefixEntry = (u8, u32, u32);

/// A RIB's policy rules and the two indexes its lookup reads.
///
/// Invariants, kept by [`Self::add`] and [`Self::remove`], the only
/// writers:
/// * `rules` is in priority order, equal priorities in insertion order;
/// * `to_prefix` holds one [`PrefixEntry`] per `ToPrefix` rule, sorted;
/// * `others` holds the priority of every other rule, sorted, repeats kept.
///
/// Only `rules` is content: it alone is compared.
#[derive(Debug, Clone, Default)]
struct PolicyRules {
    rules: Vec<PolicyRule>,
    to_prefix: Vec<PrefixEntry>,
    others: Vec<u32>,
}

impl PolicyRules {
    /// Insert `rule` after every rule of lower or equal priority.
    fn add(&mut self, rule: PolicyRule) {
        let at = self.rules.partition_point(|r| r.priority <= rule.priority);
        self.rules.insert(at, rule);
        match rule.selector {
            RuleSelector::ToPrefix(p) => {
                let (len, net) = prefix_key(p);
                let entry = (len, net, rule.priority);
                let at = self.to_prefix.partition_point(|e| *e <= entry);
                self.to_prefix.insert(at, entry);
            }
            _ => {
                let at = self.others.partition_point(|p| *p <= rule.priority);
                self.others.insert(at, rule.priority);
            }
        }
    }

    /// Remove every rule at `priority` pointing at `table`.
    fn remove(&mut self, priority: u32, table: RouteTableId) -> usize {
        let mut removed = 0;
        for at in self.run_at(0, priority).rev() {
            if self.rules[at].table != table {
                continue;
            }
            let rule = self.rules.remove(at);
            removed += 1;
            match rule.selector {
                RuleSelector::ToPrefix(p) => {
                    let (len, net) = prefix_key(p);
                    let at = self.to_prefix.binary_search(&(len, net, priority));
                    self.to_prefix
                        .remove(at.expect("every ToPrefix rule is indexed"));
                }
                _ => {
                    let at = self.others.binary_search(&priority);
                    self.others
                        .remove(at.expect("every other rule's priority is indexed"));
                }
            }
        }
        removed
    }

    /// The positions in `rules` of the rules at `priority`, which is no
    /// lower than the priority of `rules[from]`: a lookup visits priorities
    /// in ascending order, so each search starts where the last one ended.
    fn run_at(&self, from: usize, priority: u32) -> std::ops::Range<usize> {
        let start = from + self.rules[from..].partition_point(|r| r.priority < priority);
        let end = start + self.rules[start..].partition_point(|r| r.priority == priority);
        start..end
    }

    /// The lowest priority above `after` (any priority, from `None`) at
    /// which a rule can select a packet to `dst`: the next one in `others`
    /// (a cursor into `self.others`, which this advances), or that of a
    /// `ToPrefix` rule whose prefix contains `dst`, found by one binary
    /// search per prefix length present.
    fn next_candidate(
        &self,
        dst: Ipv4Addr,
        after: Option<u32>,
        others: &mut &[u32],
    ) -> Option<u32> {
        let above = |p: u32| after.is_none_or(|a| p > a);
        while others.first().is_some_and(|p| !above(*p)) {
            *others = &others[1..];
        }
        let mut next = others.first().copied();
        let mut rest = &self.to_prefix[..];
        while let Some(&(k, ..)) = rest.first() {
            let want = key_of(dst, 32 - k);
            let start =
                rest.partition_point(|e| (e.0, e.1) < want || ((e.0, e.1) == want && !above(e.2)));
            rest = &rest[start..];
            if let Some(e) = rest.first().filter(|e| (e.0, e.1) == want) {
                next = Some(next.map_or(e.2, |p| p.min(e.2)));
            }
            let same_len = rest.partition_point(|e| e.0 == k);
            rest = &rest[same_len..];
        }
        next
    }
}

impl PartialEq for PolicyRules {
    fn eq(&self, other: &Self) -> bool {
        self.rules == other.rules
    }
}

impl Eq for PolicyRules {}

/// The complete routing information base of a device: tables by id plus
/// policy rules, with the main table consulted last (as Linux does with its
/// implicit priority-32766 rule).  A table is known by its id alone:
/// nothing looks a table up by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Rib {
    tables: BTreeMap<RouteTableId, RouteTable>,
    rules: PolicyRules,
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

    /// Add a policy rule, after every rule of lower or equal priority: rules
    /// stay in priority order, equal priorities in insertion order.  A core
    /// router holds thousands of rules, so the rule goes in place rather
    /// than the list being re-sorted.
    pub fn add_rule(&mut self, rule: PolicyRule) {
        self.rules.add(rule);
    }

    /// Remove every policy rule pointing at `table` with the given priority
    /// (the inverse of `add_rule`; used by module `delete` handlers).
    /// Returns how many rules were removed.
    pub fn remove_rule(&mut self, priority: u32, table: RouteTableId) -> usize {
        self.rules.remove(priority, table)
    }

    /// Drop a whole table.  The main table is never dropped.
    pub fn drop_table(&mut self, id: RouteTableId) {
        if id != RouteTableId::MAIN {
            self.tables.remove(&id);
        }
    }

    /// Drop the tables, then the policy rules, calling `dropped` with each
    /// part's name just after it is freed (see
    /// [`DeviceConfig::drop_parts`](crate::config::DeviceConfig::drop_parts)).
    pub(crate) fn drop_parts(&mut self, dropped: &mut dyn FnMut(std::fmt::Arguments)) {
        drop(std::mem::take(&mut self.tables));
        dropped(format_args!("rib.tables"));
        drop(std::mem::take(&mut self.rules));
        dropped(format_args!("rib.rules"));
    }

    /// All rules in priority order.
    pub fn rules(&self) -> &[PolicyRule] {
        &self.rules.rules
    }

    /// All tables.
    pub fn tables(&self) -> impl Iterator<Item = (RouteTableId, &RouteTable)> {
        self.tables.iter().map(|(id, t)| (*id, t))
    }

    /// Route a packet: evaluate policy rules in priority order, falling back
    /// to the main table.  The first rule that selects the packet and whose
    /// table has a route for `dst` decides.
    pub fn lookup(&self, dst: Ipv4Addr, src: Ipv4Addr, iif: IncomingIf) -> Option<&Route> {
        self.lookup_counting(dst, src, iif, &mut LookupWork::default())
    }

    /// [`Self::lookup`], adding its rule evaluations and route comparisons
    /// to `work`.  Only the rules at [`PolicyRules::next_candidate`]
    /// priorities are evaluated; a rule at any other priority cannot select
    /// the packet.
    pub(crate) fn lookup_counting(
        &self,
        dst: Ipv4Addr,
        src: Ipv4Addr,
        iif: IncomingIf,
        work: &mut LookupWork,
    ) -> Option<&Route> {
        let mut decide = |rule: &PolicyRule| {
            work.rule_candidates += 1;
            if !rule.selects(dst, src, iif) {
                return None;
            }
            let table = self.tables.get(&rule.table)?;
            table.lookup_counting(dst, &mut work.routes_examined)
        };
        let rules = &self.rules;
        let (mut after, mut from, mut others) = (None, 0, &rules.others[..]);
        let mut chosen = None;
        while let Some(priority) = rules.next_candidate(dst, after, &mut others) {
            let at = rules.run_at(from, priority);
            (after, from) = (Some(priority), at.end);
            chosen = rules.rules[at].iter().find_map(&mut decide);
            if chosen.is_some() {
                break;
            }
        }
        chosen.or_else(|| {
            self.tables
                .get(&RouteTableId::MAIN)
                .and_then(|t| t.lookup_counting(dst, &mut work.routes_examined))
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

    fn to_port(dest: Ipv4Cidr, port: u32) -> Route {
        Route {
            dest,
            target: RouteTarget::Port { port, via: None },
        }
    }

    /// A derived table holds one route for good: its first route takes one
    /// slot, not the four a `Vec`'s first push reserves.
    #[test]
    fn a_tables_first_route_is_allocated_exactly() {
        let mut t = RouteTable::new();
        assert_eq!(t.routes.capacity(), 0);
        t.add(to_port(Ipv4Cidr::DEFAULT, 1));
        assert_eq!(t.routes.capacity(), 1);
        t.add(to_port(Ipv4Cidr::DEFAULT, 2));
        assert_eq!(t.routes.capacity(), 1, "a replaced route takes no slot");
        t.add(to_port(cidr("10.0.0.0/8"), 1));
        assert_eq!(t.len(), 2);
    }

    proptest::proptest! {
        /// Adds and removes over a few overlapping prefixes: the table
        /// holds what a plain list does (one route a prefix, the last one
        /// added), longest prefix first and then by network, and answers
        /// every lookup with the list's longest containing prefix.
        #[test]
        fn a_table_matches_a_sorted_model(
            ops in proptest::collection::vec((0u8..3, 0usize..5, 0u8..8, 0u32..4), 0..64),
        ) {
            let addr = |bits: u8| Ipv4Addr::new(10, bits & 1, bits >> 1 & 1, bits >> 2 & 1);
            let mut t = RouteTable::new();
            let mut model: Vec<Route> = Vec::new();
            for (op, len, bits, port) in ops {
                let dest = Ipv4Cidr::new(addr(bits), [0, 8, 16, 24, 32][len]);
                let dest = Ipv4Cidr::new(dest.network(), dest.prefix_len);
                let same = |r: &Route| prefix_key(r.dest) == prefix_key(dest);
                if op < 2 {
                    t.add(to_port(dest, port));
                    model.retain(|r| !same(r));
                    model.push(to_port(dest, port));
                } else {
                    let held = model.iter().filter(|r| same(r)).count();
                    proptest::prop_assert_eq!(t.remove(dest), held);
                    model.retain(|r| !same(r));
                }
                model.sort_by_key(|r| prefix_key(r.dest));
                proptest::prop_assert_eq!(t.routes(), &model[..]);
                for probe in (0..8).map(addr).chain([Ipv4Addr::new(11, 0, 0, 0)]) {
                    let longest = (model.iter().filter(|r| r.dest.contains(probe)))
                        .max_by_key(|r| r.dest.prefix_len);
                    proptest::prop_assert_eq!(t.lookup(probe), longest, "{}", probe);
                }
            }
        }
    }
}

//! The indexed per-packet lookups answer exactly what the linear walks they
//! replaced answered.
//!
//! The oracles below are the linear `RouteTable`, `Rib::lookup` and
//! `DeviceConfig::is_local_address` as they were before the indexes: a route
//! table in insertion order searched end to end, a rule list walked in
//! priority order, a scan of every tunnel.  Random interleavings of route,
//! rule, tunnel and address changes are applied to both sides, and after
//! every step every lookup must agree.

use netsim::config::{DeviceConfig, TunnelConfig};
use netsim::ipv4::Ipv4Cidr;
use netsim::route::{IncomingIf, PolicyRule, Rib, Route, RouteTableId, RouteTarget, RuleSelector};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// The pre-index route table: insertion order, a full walk per lookup.
#[derive(Debug, Clone, Default)]
struct LinearTable {
    routes: Vec<Route>,
}

impl LinearTable {
    fn add(&mut self, route: Route) {
        if let Some(existing) = self.routes.iter_mut().find(|r| {
            r.dest.network() == route.dest.network() && r.dest.prefix_len == route.dest.prefix_len
        }) {
            *existing = route;
        } else {
            self.routes.push(route);
        }
    }

    fn remove(&mut self, dest: Ipv4Cidr) -> usize {
        let before = self.routes.len();
        self.routes.retain(|r| {
            !(r.dest.network() == dest.network() && r.dest.prefix_len == dest.prefix_len)
        });
        before - self.routes.len()
    }

    fn lookup(&self, dst: Ipv4Addr) -> Option<&Route> {
        self.routes
            .iter()
            .filter(|r| r.dest.contains(dst))
            .max_by_key(|r| r.dest.prefix_len)
    }
}

/// The pre-index RIB: every rule walked in priority order.
#[derive(Debug, Clone)]
struct LinearRib {
    tables: BTreeMap<RouteTableId, LinearTable>,
    rules: Vec<PolicyRule>,
}

impl LinearRib {
    fn new() -> Self {
        let mut tables = BTreeMap::new();
        tables.insert(RouteTableId::MAIN, LinearTable::default());
        LinearRib {
            tables,
            rules: Vec::new(),
        }
    }

    fn add_rule(&mut self, rule: PolicyRule) {
        let at = self.rules.partition_point(|r| r.priority <= rule.priority);
        self.rules.insert(at, rule);
    }

    fn remove_rule(&mut self, priority: u32, table: RouteTableId) -> usize {
        let before = self.rules.len();
        self.rules
            .retain(|r| !(r.priority == priority && r.table == table));
        before - self.rules.len()
    }

    fn drop_table(&mut self, id: RouteTableId) {
        if id != RouteTableId::MAIN {
            self.tables.remove(&id);
        }
    }

    fn lookup(&self, dst: Ipv4Addr, src: Ipv4Addr, iif: IncomingIf) -> Option<&Route> {
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

/// The pre-index `is_local_address`: the port addresses, then every tunnel.
fn linear_is_local(ports: &[Ipv4Addr], cfg: &DeviceConfig, addr: Ipv4Addr) -> bool {
    ports.contains(&addr)
        || cfg
            .tunnels()
            .any(|t| t.address.is_some_and(|c| c.addr == addr))
}

/// An address, mostly inside 10.0.0.0/21 so that prefixes overlap and
/// lookups hit; one in eight anywhere.
fn addr(x: u32) -> Ipv4Addr {
    if x.is_multiple_of(8) {
        Ipv4Addr::from(x)
    } else {
        Ipv4Addr::from(0x0a00_0000 | ((x >> 3) & 0x07ff))
    }
}

/// A prefix over [`addr`], its host bits left set half the time.
fn prefix(x: u32, len: u8) -> Ipv4Cidr {
    const LENS: [u8; 12] = [0, 8, 16, 20, 21, 22, 23, 24, 26, 29, 31, 32];
    let len = if len > 32 {
        LENS[len as usize % LENS.len()]
    } else {
        len
    };
    let cidr = Ipv4Cidr::new(addr(x), len);
    if x & 0x8000_0000 == 0 {
        cidr
    } else {
        Ipv4Cidr::new(cidr.network(), len)
    }
}

/// A table id; repeats are the point.
fn table(x: u32) -> RouteTableId {
    const TABLES: [u32; 6] = [1, 2, 3, 4, 5, 254];
    RouteTableId(TABLES[x as usize % TABLES.len()])
}

/// All five selectors, over few tunnels and ports so that they repeat.
fn selector(kind: u8, x: u32, len: u8) -> RuleSelector {
    match kind % 5 {
        0 => RuleSelector::ToPrefix(prefix(x, len)),
        1 => RuleSelector::FromPrefix(prefix(x, len)),
        2 => RuleSelector::FromTunnel(x % 4),
        3 => RuleSelector::FromPort(x % 4),
        _ => RuleSelector::All,
    }
}

/// All three incoming interfaces.
fn iif(x: u32) -> IncomingIf {
    match x % 3 {
        0 => IncomingIf::Local,
        1 => IncomingIf::Port((x >> 2) % 4),
        _ => IncomingIf::Tunnel((x >> 2) % 4),
    }
}

/// One step: `(kind, x)`, `(len, y)`, `z`.
type Step = ((u8, u32), (u8, u32), u32);

/// Apply one step to both sides, checking whatever it returns.
fn apply(
    cfg: &mut DeviceConfig,
    linear: &mut LinearRib,
    ports: &mut Vec<Ipv4Addr>,
    ((kind, x), (len, y), z): Step,
) {
    let route = |dest| Route {
        dest,
        target: RouteTarget::Port {
            port: z % 4,
            via: None,
        },
    };
    match kind % 10 {
        0 | 1 => {
            let r = route(prefix(x, len));
            cfg.rib.table_mut(table(y)).add(r);
            linear.tables.entry(table(y)).or_default().add(r);
        }
        2 => {
            let dest = prefix(x, len);
            let got = cfg.rib.table_mut(table(y)).remove(dest);
            let want = linear.tables.entry(table(y)).or_default().remove(dest);
            assert_eq!(got, want, "routes removed for {dest} from {:?}", table(y));
        }
        3 | 4 => {
            let rule = PolicyRule {
                priority: z % 8,
                selector: selector(kind / 10, x, len),
                table: table(y),
            };
            cfg.rib.add_rule(rule);
            linear.add_rule(rule);
        }
        5 => {
            let got = cfg.rib.remove_rule(z % 8, table(y));
            let want = linear.remove_rule(z % 8, table(y));
            assert_eq!(got, want, "rules removed at {} for {:?}", z % 8, table(y));
        }
        6 => {
            cfg.rib.drop_table(table(y));
            linear.drop_table(table(y));
        }
        7 => {
            let mut t = TunnelConfig::gre("t", addr(x), addr(y));
            if z % 3 != 0 {
                t.address = Some(Ipv4Cidr::new(addr(y ^ z), 30));
            }
            cfg.add_tunnel(t);
        }
        8 => {
            cfg.remove_tunnel(z % 8);
        }
        _ => {
            let a = Ipv4Cidr::new(addr(x), 24);
            cfg.assign_address(z % 4, a);
            ports.push(a.addr);
            let connected = route(Ipv4Cidr::new(a.network(), 24));
            linear
                .tables
                .entry(RouteTableId::MAIN)
                .or_default()
                .add(connected);
        }
    }
}

/// Every lookup both sides answer, at `(dst, src, iif)` drawn from `probe`.
fn agree(cfg: &DeviceConfig, linear: &LinearRib, ports: &[Ipv4Addr], probe: (u32, u32, u32)) {
    let (dst, src, via) = (addr(probe.0), addr(probe.1), iif(probe.2));
    assert_eq!(
        cfg.is_local_address(dst),
        linear_is_local(ports, cfg, dst),
        "is_local_address({dst})"
    );
    assert_eq!(
        cfg.rib.lookup(dst, src, via),
        linear.lookup(dst, src, via),
        "Rib::lookup({dst}, {src}, {via:?}) over rules {:?}",
        cfg.rib.rules()
    );
    for (id, table) in cfg.rib.tables() {
        let want = linear.tables.get(&id).and_then(|t| t.lookup(dst));
        assert_eq!(
            table.lookup(dst),
            want,
            "RouteTable::lookup({dst}) in {id:?}"
        );
    }
}

/// The two sides hold the same content: rules in the same order, and each
/// table the same routes (the indexed table keeps them in its own order).
fn same_content(rib: &Rib, linear: &LinearRib) {
    assert_eq!(rib.rules(), &linear.rules[..]);
    for (id, table) in rib.tables() {
        let mut want = linear.tables.get(&id).cloned().unwrap_or_default().routes;
        want.sort_by_key(|r| (std::cmp::Reverse(r.dest.prefix_len), r.dest.network()));
        assert_eq!(table.routes(), &want[..], "routes of {id:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn indexed_lookups_answer_as_the_linear_walks_did(
        steps in proptest::collection::vec(
            ((any::<u8>(), any::<u32>()), (0u8..48, any::<u32>()), any::<u32>()),
            1..64,
        ),
        probes in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 4..8),
    ) {
        let mut cfg = DeviceConfig::new();
        let mut linear = LinearRib::new();
        let mut ports = Vec::new();
        for step in steps {
            apply(&mut cfg, &mut linear, &mut ports, step);
            for &probe in &probes {
                agree(&cfg, &linear, &ports, probe);
            }
            // Probe the configured addresses too: the hits the random
            // draws would rarely reach.
            for t in cfg.tunnels() {
                if let Some(c) = t.address {
                    agree(&cfg, &linear, &ports, (u32::from(c.addr), probes[0].1, probes[0].2));
                }
            }
        }
        same_content(&cfg.rib, &linear);
    }
}

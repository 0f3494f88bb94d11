//! The IPv4 protocol module.
//!
//! A device may contain several IP modules: the paper's Figure 4(b) shows a
//! customer-facing IP module (a "virtual router" in the customer's address
//! domain) and an ISP-facing IP module on the edge routers.  The module
//! resolves everything address-related itself — it exchanges addresses with
//! its peer IP modules through `listFieldsAndValues` relayed by the NM, and
//! turns the NM's abstract pipe/switch primitives into routes, policy rules
//! and (for IP-IP paths) tunnel state in the simulated data plane.
//!
//! A filter names modules only.  The module resolves each end from what it
//! already knows: itself to the address it gives its peers, a module it
//! exchanged addresses with on one of its pipes to the address it learned.
//! It refuses any other end at stage (a stranger, a peer that has not
//! answered yet, a module that is not IP), and installs a `/32` to `/32`
//! drop rule for the rest.
//!
//! A pipe's record holds its shape (a tunnel endpoint, IP-IP or not; an
//! adjacency; or any other pipe) and the address the module learned on it,
//! not the spec that created it: the peer of an exchanging pipe, the only
//! kind that learns an address, is held once, in [`Exchanges`].

use crate::dialect::{self, Dialect};
use crate::exchange::Exchanges;
use conman_core::abstraction::{
    Dependency, FilterCapability, FilterClassifier, ModuleAbstraction, SwitchKind,
};
use conman_core::ids::{ModuleKind, ModuleRef, PipeId};
use conman_core::module::{ModuleCtx, ModuleError, ModuleReaction, ProtocolModule, SwitchField};
use conman_core::primitives::{
    ComponentRef, EnvelopeKind, FilterSpec, ModuleActual, ModuleEnvelope, PipeSpec, Primitive,
    SwitchSpec,
};
use mgmt_channel::codec::{Reader, Writer};
use netsim::config::{FilterAction, FilterRule, TunnelConfig};
use netsim::ipv4::Ipv4Cidr;
use netsim::mpls::NhlfeKey;
use netsim::route::{PolicyRule, Route, RouteTableId, RouteTarget, RuleSelector};
use netsim::stats::DropReason;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::Ipv4Addr;

/// What IP modules ask each other with `listFieldsAndValues`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IpMsg {
    /// Tag 0, then an address: "what is your address on this pipe?",
    /// carrying ours.
    Query(Ipv4Addr),
    /// Tag 1, then an address: the answer to a [`IpMsg::Query`].
    Address(Ipv4Addr),
}

impl Dialect for IpMsg {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        match *self {
            IpMsg::Query(addr) => {
                w.put_u8(0);
                dialect::put_addr(&mut w, addr);
            }
            IpMsg::Address(addr) => {
                w.put_u8(1);
                dialect::put_addr(&mut w, addr);
            }
        }
        w.finish()
    }

    fn decode(body: &[u8]) -> Option<Self> {
        let mut r = Reader::new(body);
        let msg = match r.u8()? {
            0 => IpMsg::Query(dialect::addr(&mut r)?),
            1 => IpMsg::Address(dialect::addr(&mut r)?),
            _ => return None,
        };
        dialect::whole(&r, msg)
    }

    fn kind(&self) -> EnvelopeKind {
        match self {
            IpMsg::Query(_) => EnvelopeKind::FieldQuery,
            IpMsg::Address(_) => EnvelopeKind::FieldResponse,
        }
    }
}

/// What a pipe is to this module, read once from its spec when it is
/// created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// A tunnel endpoint: this module is the lower end beneath a tunnelling
    /// module, GRE or, for an IP-IP path (`ipip`), another IP module.
    Endpoint { ipip: bool },
    /// An adjacency: this module is the upper end above an ETH module, with
    /// a peer on the neighbouring device.
    Adjacency,
    /// Any other pipe.
    Other,
}

impl Shape {
    /// The shape of `spec` for the module at its upper end when `upper`,
    /// at its lower end otherwise.
    fn of(spec: &PipeSpec, upper: bool) -> Shape {
        match (upper, &spec.upper.kind, &spec.lower.kind) {
            (false, ModuleKind::Gre, _) => Shape::Endpoint { ipip: false },
            (false, ModuleKind::Ip, _) => Shape::Endpoint { ipip: true },
            (true, _, ModuleKind::Eth) => Shape::Adjacency,
            _ => Shape::Other,
        }
    }
}

/// A pipe as this module holds it: its shape and the address it learned.
/// Its peer is in [`IpModule::exchanges`], the one place that holds one:
/// only an exchanging pipe learns an address.
#[derive(Debug, Clone, Copy)]
struct PipeRec {
    shape: Shape,
    /// The peer's address on this pipe (next hop or remote tunnel
    /// endpoint), once the exchange paired.
    learned: Option<Ipv4Addr>,
}

impl PipeRec {
    fn is_endpoint(&self) -> bool {
        matches!(self.shape, Shape::Endpoint { .. })
    }

    fn is_adjacency(&self) -> bool {
        self.shape == Shape::Adjacency
    }
}

/// How a pipe reaches the next device: a raw Ethernet adjacency or an MPLS
/// LSP entry installed by the MPLS module on the same device.
#[derive(Debug, Clone, Copy)]
enum Attachment {
    /// Ethernet adjacency: egress port plus the peer's learnt address.
    Adjacency { port: u32, nexthop: Ipv4Addr },
    /// LSP access point: the push NHLFE and the port it transmits on.
    Mpls { key: NhlfeKey, port: u32 },
}

impl Attachment {
    fn port(&self) -> u32 {
        match self {
            Attachment::Adjacency { port, .. } | Attachment::Mpls { port, .. } => *port,
        }
    }

    fn target(&self) -> RouteTarget {
        match self {
            Attachment::Adjacency { port, nexthop } => RouteTarget::Port {
                port: *port,
                via: Some(*nexthop),
            },
            Attachment::Mpls { key, .. } => RouteTarget::Mpls { nhlfe: *key },
        }
    }
}

/// A switch rule as this module applies it: a [`SwitchSpec`] with its named
/// values parsed, by [`Rule::parse`] alone.
#[derive(Debug, Clone, Copy)]
struct Rule {
    in_pipe: PipeId,
    out_pipe: PipeId,
    /// Only traffic to this prefix takes the rule; `Some(None)` when the
    /// class does not parse, and then the rule never applies.
    class: Option<Option<Ipv4Cidr>>,
    /// The customer gateway a rule towards the customer routes through.
    gateway: Option<Ipv4Addr>,
    /// The local site prefix a gateway rule routes through the gateway;
    /// `None` also when it does not parse, and then there is no such route.
    local_prefix: Option<Ipv4Cidr>,
}

impl Rule {
    /// The one reading of a switch spec, behind both `admit` and
    /// `create_switch`.  A gateway that does not parse is refused.  A class
    /// or a local prefix that does not parse is still taken, as it always
    /// was: `benchmark/`'s synthetic fleets name classes such as
    /// `10.300.1.0/24` and count those goals as converged (ROADMAP item 3).
    fn parse(spec: &SwitchSpec) -> Result<Self, ModuleError> {
        let bad = |_| ModuleError::BadSwitchField(SwitchField::Gateway);
        let gateway = spec.gateway.as_ref().map(|g| g.value.parse().map_err(bad));
        Ok(Rule {
            in_pipe: spec.in_pipe,
            out_pipe: spec.out_pipe,
            class: (spec.dst_class.as_ref()).map(|c| c.value.parse().ok()),
            gateway: gateway.transpose()?,
            local_prefix: spec.local_prefix.as_ref().and_then(|p| p.parse().ok()),
        })
    }
}

/// Data-plane artifacts one switch rule installed, remembered so `delete`
/// can undo exactly what `create` did (the NM's teardown scripts during
/// self-healing rely on this).
#[derive(Debug, Clone, Default)]
struct InstalledSwitch {
    rules: Vec<(u32, RouteTableId)>,
    tables: Vec<RouteTableId>,
    main_routes: Vec<Ipv4Cidr>,
    /// IP-IP tunnels, each with the endpoint pipe it is published on.
    tunnels: Vec<(PipeId, u32)>,
}

/// The IPv4 protocol module.
pub(crate) struct IpModule {
    me: ModuleRef,
    /// The address domain this module belongs to (customer VRF or ISP core).
    pub domain: String,
    /// The module's primary address, used when a pipe-specific address
    /// cannot be determined.
    pub primary: Ipv4Addr,
    pipes: BTreeMap<PipeId, PipeRec>,
    /// The address exchange of every pipe that has one
    /// ([`Self::exchange_peer`]): whom it is with, the far pipe its messages
    /// name, who opens it and how far it got.  A pipe that never exchanges
    /// is never listed, so no message can pair with it.
    exchanges: Exchanges,
    /// Adjacency pipes (upper end above an ETH module), so
    /// [`Self::path_address`] is O(1) instead of a per-call pipe scan.
    adjacency_pipes: BTreeSet<PipeId>,
    pending_switches: Vec<Rule>,
    /// Applied switch rules keyed `(in, out)`: what `showActual` lists and
    /// `delete` removes.
    installed: BTreeMap<(PipeId, PipeId), InstalledSwitch>,
    /// How many installed switch rules registered each main-table route.
    /// Concurrent goals tunnelling between the same endpoints share one /32
    /// host route; it leaves the table with its last user.
    main_route_users: HashMap<Ipv4Cidr, usize>,
    /// Installed filters keyed `(from, to)`, each with the id of its
    /// [`FilterRule`]: what `showActual` lists and `delete` removes.
    filters: BTreeMap<(ModuleRef, ModuleRef), u32>,
}

impl IpModule {
    /// Create an IP module.
    pub(crate) fn new(me: ModuleRef, domain: impl Into<String>, primary: Ipv4Addr) -> Self {
        IpModule {
            me,
            domain: domain.into(),
            primary,
            pipes: BTreeMap::new(),
            exchanges: Exchanges::default(),
            adjacency_pipes: BTreeSet::new(),
            pending_switches: Vec::new(),
            installed: BTreeMap::new(),
            main_route_users: HashMap::new(),
            filters: BTreeMap::new(),
        }
    }

    /// How this module can reach the far side through one of its pipes:
    /// either a plain Ethernet adjacency (port + learnt next hop) or an
    /// MPLS LSP access point published by the MPLS module below.  Paths like
    /// `IP-IP over MPLS` hang tunnel endpoints and transit hops over LSPs
    /// instead of raw links, and healing routinely picks them.
    fn attachment_of(ctx: &ModuleCtx, pipe: PipeId, rec: &PipeRec) -> Option<Attachment> {
        let facts = ctx.blackboard.pipe(pipe);
        if rec.is_adjacency() {
            return Some(Attachment::Adjacency {
                port: facts.port?,
                nexthop: facts.nexthop?,
            });
        }
        let RouteTarget::Mpls { nhlfe: key } = facts.attach? else {
            return None;
        };
        let port = ctx.config.mpls.nhlfe_by_key(key)?.out_port;
        Some(Attachment::Mpls { key, port })
    }

    /// The address this module uses on a given adjacency pipe.
    fn address_on_pipe(&self, ctx: &ModuleCtx, pipe: PipeId) -> Ipv4Addr {
        ctx.blackboard
            .pipe(pipe)
            .port
            .and_then(|p| ctx.config.address_on_port(p))
            .map(|c| c.addr)
            .unwrap_or(self.primary)
    }

    /// The address this module reports as its end of the path: the address
    /// on its (unique) adjacency pipe when it has one, its primary otherwise.
    fn path_address(&self, ctx: &ModuleCtx) -> Ipv4Addr {
        let mut adj = self.adjacency_pipes.iter();
        match (adj.next(), adj.next()) {
            (Some(&only), None) => self.address_on_pipe(ctx, only),
            _ => self.primary,
        }
    }

    /// What a filter end stands for, the one resolution behind both `admit`
    /// and `create_filter`: `mine` when the end is this module, the address
    /// it learned from the end on one of its pipes when the two exchanged
    /// addresses, `None` for any other module.  `admit` asks only whether
    /// an end resolves, so any `mine` does there.
    fn filter_end(&self, end: &ModuleRef, mine: Ipv4Addr) -> Option<Ipv4Addr> {
        if *end == self.me {
            return Some(mine);
        }
        (self.pipes.iter())
            .filter(|(pipe, _)| self.exchanges.is_with(**pipe, end))
            .find_map(|(_, rec)| rec.learned)
    }

    fn record_learned(
        &mut self,
        ctx: &mut ModuleCtx,
        pipe: PipeId,
        their: Ipv4Addr,
        ours: Ipv4Addr,
    ) {
        let rec = self.pipes.get_mut(&pipe).expect("an exchanging pipe");
        rec.learned = Some(their);
        let endpoint = rec.is_endpoint();
        ctx.blackboard.publish(pipe, |facts| {
            if endpoint {
                facts.remote_addr = Some(their);
                facts.local_addr = Some(ours);
            } else {
                facts.nexthop = Some(their);
            }
        });
    }

    /// Register `dest` as a main-table route of the switch rule `(in, out)`.
    fn note_main_route(&mut self, spec: &Rule, dest: Ipv4Cidr) {
        self.installed
            .entry((spec.in_pipe, spec.out_pipe))
            .or_default()
            .main_routes
            .push(dest);
        *self.main_route_users.entry(dest).or_default() += 1;
    }

    /// Try to apply a pending switch rule; returns true when fully applied.
    fn try_apply_switch(&mut self, ctx: &mut ModuleCtx, spec: &Rule) -> bool {
        // Classified rule: customer traffic into the core-side attachment.
        if let Some(class) = spec.class {
            let attach = ctx.blackboard.pipe(spec.out_pipe).attach;
            let (Some(prefix), Some(target)) = (class, attach) else {
                return false;
            };
            let table = table_for(spec.out_pipe, ROLE_CLASS);
            ctx.config.ip_forwarding = true;
            ctx.config
                .rib
                .name_table(table, format!("conman-{}", spec.out_pipe));
            ctx.config.rib.table_mut(table).add(Route {
                dest: Ipv4Cidr::DEFAULT,
                target,
            });
            let priority = priority_for(spec.out_pipe, ROLE_CLASS);
            ctx.config.rib.add_rule(PolicyRule {
                priority,
                selector: RuleSelector::ToPrefix(prefix),
                table,
            });
            let installed = self
                .installed
                .entry((spec.in_pipe, spec.out_pipe))
                .or_default();
            installed.rules.push((priority, table));
            installed.tables.push(table);
            return true;
        }

        // Gateway rule: traffic coming back from the core towards the
        // customer-facing pipe.
        if let Some(gw) = spec.gateway {
            let Some(port) = ctx.blackboard.pipe(spec.out_pipe).port else {
                return false;
            };
            ctx.config.ip_forwarding = true;
            // The rule is applied from here on, and listed and deletable
            // even when it installs nothing below.
            self.installed
                .entry((spec.in_pipe, spec.out_pipe))
                .or_default();
            // Make the local site prefix reachable through the customer
            // gateway so reverse traffic (tunnel- or MPLS-decapped packets
            // alike) is delivered.
            if let Some(prefix) = spec.local_prefix {
                ctx.config.rib.add_main(Route {
                    dest: prefix,
                    target: RouteTarget::Port {
                        port,
                        via: Some(gw),
                    },
                });
                self.note_main_route(spec, prefix);
            }
            return true;
        }

        // Unclassified rule between two of this module's pipes.
        let (Some(in_rec), Some(out_rec)) = (
            self.pipes.get(&spec.in_pipe),
            self.pipes.get(&spec.out_pipe),
        ) else {
            return false;
        };
        let endpoint = match (in_rec.shape, out_rec.shape) {
            (Shape::Endpoint { ipip }, _) => Some((spec.in_pipe, ipip, spec.out_pipe, out_rec)),
            (_, Shape::Endpoint { ipip }) => Some((spec.out_pipe, ipip, spec.in_pipe, in_rec)),
            _ => None,
        };
        match endpoint {
            // Tunnel-endpoint switch (Figure 7(b) command 8): route the
            // remote tunnel endpoint through the other pipe's attachment —
            // an Ethernet adjacency or, on `... over MPLS` paths, an LSP.
            Some((ep_pipe, ipip, other_pipe, other)) => {
                let ep_facts = ctx.blackboard.pipe(ep_pipe);
                let Some(remote) = ep_facts.remote_addr else {
                    return false;
                };
                let Some(attachment) = Self::attachment_of(ctx, other_pipe, other) else {
                    return false;
                };
                ctx.config.ip_forwarding = true;
                ctx.config.rib.add_main(Route {
                    dest: Ipv4Cidr::new(remote, 32),
                    target: attachment.target(),
                });
                self.note_main_route(spec, Ipv4Cidr::new(remote, 32));
                // For an IP-IP path this module is itself the tunnelling
                // protocol: create the IP-IP tunnel and expose the attachment
                // to the customer IP module above.
                if ipip && ep_facts.attach.is_none() {
                    let id = ctx.config.add_tunnel(TunnelConfig::ipip(
                        format!("ipip-{ep_pipe}"),
                        ep_facts.local_addr.unwrap_or(self.primary),
                        remote,
                    ));
                    ctx.blackboard.publish(ep_pipe, |facts| {
                        facts.attach = Some(RouteTarget::Tunnel { tunnel: id })
                    });
                    self.installed
                        .entry((spec.in_pipe, spec.out_pipe))
                        .or_default()
                        .tunnels
                        .push((ep_pipe, id));
                }
                true
            }
            // Transit switch between two attachments (the core router's IP
            // module): interface-scoped default routes in both directions.
            // Either side may be an Ethernet adjacency or an LSP access
            // point (a transit hop where the packet leaves/rejoins an MPLS
            // segment).
            None => {
                let (Some(att_in), Some(att_out)) = (
                    Self::attachment_of(ctx, spec.in_pipe, in_rec),
                    Self::attachment_of(ctx, spec.out_pipe, out_rec),
                ) else {
                    return false;
                };
                ctx.config.ip_forwarding = true;
                let installed = self
                    .installed
                    .entry((spec.in_pipe, spec.out_pipe))
                    .or_default();
                for (i, (from, to)) in [(att_in, att_out), (att_out, att_in)]
                    .into_iter()
                    .enumerate()
                {
                    let role = if i == 0 {
                        ROLE_TRANSIT_FWD
                    } else {
                        ROLE_TRANSIT_REV
                    };
                    let table = table_for(spec.in_pipe, role);
                    ctx.config
                        .rib
                        .name_table(table, format!("conman-transit-{}", table.0));
                    ctx.config.rib.table_mut(table).add(Route {
                        dest: Ipv4Cidr::DEFAULT,
                        target: to.target(),
                    });
                    let priority = priority_for(spec.in_pipe, role);
                    ctx.config.rib.add_rule(PolicyRule {
                        priority,
                        selector: RuleSelector::FromPort(from.port()),
                        table,
                    });
                    installed.rules.push((priority, table));
                    installed.tables.push(table);
                }
                true
            }
        }
    }
}

/// Role of a derived route table / policy rule, used to keep identifiers
/// unique per (pipe, role) pair.
const ROLE_CLASS: u32 = 0; // classified forward rule, keyed by the out pipe
                           // Role 1 is unassigned; `derived_table_range` still spans four roles, so no table id moves.
const ROLE_TRANSIT_FWD: u32 = 2; // transit direction 1, keyed by the in pipe
const ROLE_TRANSIT_REV: u32 = 3; // transit direction 2, keyed by the in pipe

/// The route table a switch rule installs into.  Injective in (pipe, role):
/// concurrent goals execute in disjoint pipe-id blocks, so their tables can
/// never collide with each other — nor with the reserved main table (254),
/// which the old `240 + 2 * pipe` scheme could reach on long chains.
fn table_for(pipe: PipeId, role: u32) -> RouteTableId {
    RouteTableId(1000 + pipe.0 * 4 + role)
}

/// The policy-rule priority paired with [`table_for`], unique the same way.
fn priority_for(pipe: PipeId, role: u32) -> u32 {
    100 + pipe.0 * 4 + role
}

/// The inclusive range of derived route-table ids a goal's pipe block can
/// produce (`slots` pipe ids from `pipe_base`, every role).  This is the
/// *authoritative* mapping — per-goal fault injection
/// (`netsim::fault::Misconfiguration::FlushRouteTables`) and the loop
/// bench target exactly one goal's tables through it instead of
/// duplicating the numbering scheme, which has already changed once.
pub fn derived_table_range(pipe_base: u32, slots: u32) -> (RouteTableId, RouteTableId) {
    (
        table_for(PipeId(pipe_base), 0),
        table_for(PipeId(pipe_base + slots.saturating_sub(1)), 3),
    )
}

impl ProtocolModule for IpModule {
    fn reference(&self) -> ModuleRef {
        self.me
    }

    fn descriptor(&self) -> ModuleAbstraction {
        let mut a = ModuleAbstraction::empty(self.me);
        a.up_connectable = vec![ModuleKind::Ip, ModuleKind::Gre];
        a.down_connectable = vec![
            ModuleKind::Ip,
            ModuleKind::Gre,
            ModuleKind::Mpls,
            ModuleKind::Eth,
        ];
        a.peerable = vec![ModuleKind::Ip];
        a.switch.kinds = vec![
            SwitchKind::DownUp,
            SwitchKind::UpDown,
            SwitchKind::DownDown,
            SwitchKind::UpUp,
        ];
        a.filter = FilterCapability {
            classifiers: vec![
                FilterClassifier::SourceModule,
                FilterClassifier::DestinationModule,
                FilterClassifier::ModuleType,
            ],
        };
        a.perf_reporting = vec!["packets forwarded, delivered and dropped".to_string()];
        a.address_domain = Some(self.domain.clone());
        a.up_dependencies = vec![];
        a.down_dependencies = vec![Dependency::new(
            "arp",
            "relies on ARP for IP-to-MAC mapping on Ethernet down-pipes",
        )];
        a
    }

    fn actual(&self, _ctx: &ModuleCtx) -> ModuleActual {
        ModuleActual {
            pipes: self.pipes.keys().copied().collect(),
            switch_rules: self.installed.keys().copied().collect(),
            filters: self.filters.keys().cloned().collect(),
        }
    }

    fn admit(&self, primitive: &Primitive) -> Result<(), ModuleError> {
        match primitive {
            Primitive::CreateSwitch(spec) => Rule::parse(spec).map(drop),
            Primitive::CreateFilter(spec) => {
                if self.filters.contains_key(&(spec.from, spec.to)) {
                    return Err(ModuleError::FilterInUse);
                }
                let unresolved = [&spec.from, &spec.to]
                    .into_iter()
                    .find(|end| self.filter_end(end, self.primary).is_none());
                unresolved.map_or(Ok(()), |end| Err(ModuleError::UnresolvedFilterEnd(*end)))
            }
            _ => Ok(()),
        }
    }

    fn fault_domain(&self) -> &'static [DropReason] {
        &[
            DropReason::NoRoute,
            DropReason::TtlExpired,
            DropReason::Filtered,
            DropReason::ForwardingDisabled,
        ]
    }

    fn delete(
        &mut self,
        ctx: &mut ModuleCtx,
        component: &ComponentRef,
    ) -> Result<ModuleReaction, ModuleError> {
        match component {
            ComponentRef::SwitchRule(module, in_pipe, out_pipe) if *module == self.me => {
                if let Some(installed) = self.installed.remove(&(*in_pipe, *out_pipe)) {
                    for (priority, table) in &installed.rules {
                        ctx.config.rib.remove_rule(*priority, *table);
                    }
                    for table in &installed.tables {
                        ctx.config.rib.drop_table(*table);
                    }
                    for dest in &installed.main_routes {
                        // Main-table routes can be *shared*: concurrent
                        // goals tunnelling between the same endpoints each
                        // register the same /32 host route.  Only drop it
                        // once no surviving switch still needs it.
                        let users = self
                            .main_route_users
                            .get_mut(dest)
                            .expect("every registered main route is counted");
                        *users -= 1;
                        if *users == 0 {
                            self.main_route_users.remove(dest);
                            ctx.config.rib.table_mut(RouteTableId::MAIN).remove(*dest);
                        }
                    }
                    for (endpoint, tunnel) in &installed.tunnels {
                        ctx.config.remove_tunnel(*tunnel);
                        ctx.blackboard
                            .publish(*endpoint, |facts| facts.attach = None);
                    }
                }
                self.pending_switches
                    .retain(|s| !(s.in_pipe == *in_pipe && s.out_pipe == *out_pipe));
            }
            ComponentRef::Pipe(pipe) => {
                self.pipes.remove(pipe);
                self.adjacency_pipes.remove(pipe);
                self.exchanges.remove(*pipe);
                self.pending_switches
                    .retain(|s| s.in_pipe != *pipe && s.out_pipe != *pipe);
            }
            ComponentRef::Filter(module, from, to) if *module == self.me => {
                if let Some(id) = self.filters.remove(&(*from, *to)) {
                    ctx.config.filters.retain(|rule| rule.id != id);
                }
            }
            _ => {}
        }
        Ok(ModuleReaction::none())
    }

    fn create_pipe(
        &mut self,
        _ctx: &mut ModuleCtx,
        spec: &PipeSpec,
    ) -> Result<ModuleReaction, ModuleError> {
        let upper = spec.upper == self.me;
        let shape = Shape::of(spec, upper);
        // An endpoint or an adjacency exchanges addresses with its peer,
        // when that is an IP module.
        let peer = if upper {
            &spec.peer_upper
        } else {
            &spec.peer_lower
        };
        let peer =
            (peer.as_ref()).filter(|peer| peer.kind == ModuleKind::Ip && shape != Shape::Other);
        if let (Some(peer), Some(peer_pipe)) = (peer, spec.peer_pipe) {
            self.exchanges
                .add(spec.pipe, peer, peer_pipe, spec.initiate);
        }
        if shape == Shape::Adjacency {
            self.adjacency_pipes.insert(spec.pipe);
        }
        let rec = PipeRec {
            shape,
            learned: None,
        };
        self.pipes.insert(spec.pipe, rec);
        Ok(ModuleReaction::none())
    }

    fn create_switch(
        &mut self,
        ctx: &mut ModuleCtx,
        spec: &SwitchSpec,
    ) -> Result<ModuleReaction, ModuleError> {
        let rule = Rule::parse(spec)?;
        if !self.try_apply_switch(ctx, &rule) {
            self.pending_switches.push(rule);
        }
        Ok(ModuleReaction::none())
    }

    fn create_filter(
        &mut self,
        ctx: &mut ModuleCtx,
        spec: &FilterSpec,
    ) -> Result<ModuleReaction, ModuleError> {
        // The NM speaks in terms of modules; the IP module resolves them to
        // addresses itself.  Stage admitted both ends, but a pipe deleted
        // earlier in the same batch takes what it learned with it: then
        // nothing is installed or listed, so `audit()` finds a claimed
        // filter missing.
        let mine = self.path_address(ctx);
        let [Some(src), Some(dst)] = [&spec.from, &spec.to].map(|end| self.filter_end(end, mine))
        else {
            return Ok(ModuleReaction::none());
        };
        // One past the highest id on the device: another IP module's rules
        // share the table, and `delete` removes by id.
        let id = 1 + ctx.config.filters.iter().map(|r| r.id).max().unwrap_or(0);
        let key = (spec.from, spec.to);
        self.filters.insert(key, id);
        ctx.config.filters.push(FilterRule {
            id,
            action: FilterAction::Drop,
            src: Some(Ipv4Cidr::new(src, 32)),
            dst: Some(Ipv4Cidr::new(dst, 32)),
            proto: None,
            dst_port: None,
        });
        Ok(ModuleReaction::none())
    }

    fn handle_envelope(
        &mut self,
        ctx: &mut ModuleCtx,
        env: &ModuleEnvelope,
    ) -> Result<ModuleReaction, ModuleError> {
        let (their, query) = match IpMsg::read(env)? {
            IpMsg::Query(their) => (their, true),
            IpMsg::Address(their) => (their, false),
        };
        // Concurrent goals can each run a pipe to the *same* peer module,
        // in either direction: the message names its pipe, and pairs only
        // when that pipe waits for it.
        let pipe = env.pipe;
        let Some(peer_pipe) = self.exchanges.pair(&env.from, pipe, query) else {
            return Ok(ModuleReaction::none());
        };
        let ours = if self.pipes[&pipe].is_adjacency() {
            self.address_on_pipe(ctx, pipe)
        } else {
            self.path_address(ctx)
        };
        self.record_learned(ctx, pipe, their, ours);
        if query {
            // Answer with our address for this pipe.
            return Ok(ModuleReaction::envelope(
                IpMsg::Address(ours).envelope(&self.me, env.from, peer_pipe),
            ));
        }
        Ok(ModuleReaction::none())
    }

    fn poll(&mut self, ctx: &mut ModuleCtx) -> ModuleReaction {
        let mut reaction = ModuleReaction::none();

        // 1. Initiate pending peer exchanges once the underlying port (and
        //    therefore our address) is known.
        let mut sent = Vec::new();
        for (id, peer, peer_pipe) in self.exchanges.owed() {
            let ours = if self.pipes[&id].is_adjacency() {
                if ctx.blackboard.pipe(id).port.is_none() {
                    continue; // ETH module has not published the port yet
                }
                self.address_on_pipe(ctx, id)
            } else {
                self.path_address(ctx)
            };
            reaction
                .envelopes
                .push(IpMsg::Query(ours).envelope(&self.me, peer, peer_pipe));
            sent.push(id);
        }
        for id in sent {
            self.exchanges.opened(id);
        }

        // 2. Retry pending switch rules.
        let pending = std::mem::take(&mut self.pending_switches);
        for rule in pending {
            if !self.try_apply_switch(ctx, &rule) {
                self.pending_switches.push(rule);
            }
        }
        reaction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::{far, mangle, module, pipe, switch, Rig};
    use conman_core::primitives::ResolvedName;
    use proptest::prelude::*;

    impl crate::delivery::Exchanging for IpModule {
        fn exchanges(&self) -> &Exchanges {
            &self.exchanges
        }
    }

    fn me() -> ModuleRef {
        module(ModuleKind::Ip, 1, 1)
    }

    /// An initiating adjacency pipe over the local ETH module towards the
    /// IP module of device `peer`.
    fn adjacency(id: u32, peer: u64) -> PipeSpec {
        let mut spec = pipe(id, &me(), &module(ModuleKind::Eth, 2, 1));
        spec.peer_upper = Some(module(ModuleKind::Ip, 1, peer));
        spec.peer_pipe = Some(far(id));
        spec.initiate = true;
        spec
    }

    /// The IP module of device `from` tells us its address for our pipe
    /// `pipe`, asking for ours when `query` is set.
    fn address_message(from: u64, pipe: u32, query: bool) -> ModuleEnvelope {
        let addr = Ipv4Addr::new(10, 9, 0, from as u8);
        let msg = if query {
            IpMsg::Query(addr)
        } else {
            IpMsg::Address(addr)
        };
        msg.envelope(&module(ModuleKind::Ip, 1, from), me(), PipeId(pipe))
    }

    /// The pipes the exchange table says still owe their opening query.
    fn owed(m: &IpModule) -> Vec<PipeId> {
        m.exchanges.owed().map(|(pipe, ..)| pipe).collect()
    }

    /// The peer a spec names for this module's end of the pipe.
    fn peer_of(spec: &PipeSpec) -> Option<&ModuleRef> {
        if spec.upper == me() {
            spec.peer_upper.as_ref()
        } else {
            spec.peer_lower.as_ref()
        }
    }

    /// The full scan of what the module was told: every pipe that initiates
    /// an exchange with an IP peer, endpoint or adjacency, and has not sent
    /// its query yet, whether or not it can fire.
    fn scan(created: &BTreeMap<PipeId, PipeSpec>, opened: &[PipeId]) -> Vec<PipeId> {
        let mut owed = Vec::new();
        for (id, spec) in created {
            if opened.contains(id) || !spec.initiate {
                continue;
            }
            if peer_of(spec).is_none_or(|p| p.kind != ModuleKind::Ip) {
                continue;
            }
            let upper = spec.upper == me();
            let endpoint = !upper && matches!(spec.upper.kind, ModuleKind::Gre | ModuleKind::Ip);
            let adjacency = upper && spec.lower.kind == ModuleKind::Eth;
            if endpoint || adjacency {
                owed.push(*id);
            }
        }
        owed
    }

    #[test]
    fn a_completed_exchange_leaves_nothing_for_poll() {
        let mut rig = Rig::new();
        let mut m = IpModule::new(me(), "isp", "10.9.0.1".parse().unwrap());
        m.create_pipe(&mut rig.ctx(), &adjacency(3, 2)).unwrap();
        rig.publish_port(3, 0);
        let query = m.poll(&mut rig.ctx());
        assert_eq!(query.envelopes.len(), 1);
        assert_eq!(query.envelopes[0].kind, EnvelopeKind::FieldQuery);
        assert!(owed(&m).is_empty());
        m.handle_envelope(&mut rig.ctx(), &address_message(2, 3, false))
            .unwrap();
        assert!(m.exchanges.waiting().is_empty());

        let (config, changes) = (rig.config.clone(), rig.blackboard.changes());
        assert!(m.poll(&mut rig.ctx()).is_empty());
        assert_eq!(
            rig.config, config,
            "an idle poll leaves the data plane alone"
        );
        assert_eq!(rig.blackboard.changes(), changes);
    }

    #[test]
    fn an_adjacency_waits_for_its_port_and_fires_once_it_appears() {
        let mut rig = Rig::new();
        let mut m = IpModule::new(me(), "isp", "10.9.0.1".parse().unwrap());
        m.create_pipe(&mut rig.ctx(), &adjacency(3, 2)).unwrap();
        assert!(m.poll(&mut rig.ctx()).is_empty(), "no port published yet");
        assert_eq!(owed(&m), [PipeId(3)]);
        rig.publish_port(3, 0);
        assert_eq!(m.poll(&mut rig.ctx()).envelopes.len(), 1);
        assert!(owed(&m).is_empty());
        assert!(m.poll(&mut rig.ctx()).is_empty(), "the query goes out once");
    }

    #[test]
    fn deleting_a_pipe_clears_every_index_and_a_recreated_pipe_initiates_again() {
        let mut rig = Rig::new();
        let mut m = IpModule::new(me(), "isp", "10.9.0.1".parse().unwrap());
        for round in 0..2 {
            m.create_pipe(&mut rig.ctx(), &adjacency(3, 2)).unwrap();
            rig.publish_port(3, 0);
            assert_eq!(m.poll(&mut rig.ctx()).envelopes.len(), 1, "round {round}");
            m.delete(&mut rig.ctx(), &ComponentRef::Pipe(PipeId(3)))
                .unwrap();
            assert!(m.pipes.is_empty());
            assert!(m.exchanges.is_empty());
            assert!(m.adjacency_pipes.is_empty());
        }
        // Deleted while still waiting for its port: nothing fires later.
        m.create_pipe(&mut rig.ctx(), &adjacency(4, 2)).unwrap();
        m.delete(&mut rig.ctx(), &ComponentRef::Pipe(PipeId(4)))
            .unwrap();
        rig.publish_port(4, 0);
        assert!(m.poll(&mut rig.ctx()).is_empty());
    }

    /// Two goals' exchanges with one peer over one link, in opposite
    /// directions: this side initiates pipe 3 and answers on pipe 4.  The
    /// peer's query names pipe 4 and its answer pipe 3, each reply names
    /// the peer's pipe, and pipe 3's own query still goes out.  Matching by
    /// pipe order alone gave pipe 3 the peer's query and left pipe 4
    /// waiting for good.
    #[test]
    fn an_exchange_lands_on_the_pipe_it_names() {
        let mut rig = Rig::new();
        let mut m = IpModule::new(me(), "isp", "10.9.0.1".parse().unwrap());
        let mut answering = adjacency(4, 2);
        answering.initiate = false;
        for spec in [adjacency(3, 2), answering] {
            m.create_pipe(&mut rig.ctx(), &spec).unwrap();
            rig.publish_port(spec.pipe.0, 0);
        }
        let learned = |m: &IpModule| [3, 4].map(|id| m.pipes[&PipeId(id)].learned);
        let peer = Some(Ipv4Addr::new(10, 9, 0, 2));

        let answer = m
            .handle_envelope(&mut rig.ctx(), &address_message(2, 4, true))
            .unwrap();
        assert_eq!(answer.envelopes.len(), 1, "the query is answered");
        assert_eq!(answer.envelopes[0].pipe, far(4));
        assert_eq!(learned(&m), [None, peer], "the query lands on pipe 4");
        let query = m.poll(&mut rig.ctx());
        assert_eq!(query.envelopes.len(), 1, "pipe 3 still opens its own");
        assert_eq!(query.envelopes[0].kind, EnvelopeKind::FieldQuery);
        assert_eq!(query.envelopes[0].pipe, far(3));
        m.handle_envelope(&mut rig.ctx(), &address_message(2, 3, false))
            .unwrap();
        assert_eq!(learned(&m), [peer, peer], "the answer lands on pipe 3");
        assert!(m.exchanges.waiting().is_empty());
    }

    /// The address device 2 gives our pipe `pipe` in the tests below.
    fn addr(pipe: u32) -> Ipv4Addr {
        Ipv4Addr::new(10, 9, pipe as u8, 2)
    }

    /// Hand `m` device 2's `msg` for our pipe `pipe`; how many messages it
    /// answers with.
    fn answered(m: &mut IpModule, rig: &mut Rig, msg: IpMsg, pipe: u32) -> usize {
        let env = msg.envelope(&module(ModuleKind::Ip, 1, 2), me(), PipeId(pipe));
        m.handle_envelope(&mut rig.ctx(), &env)
            .unwrap()
            .envelopes
            .len()
    }

    /// A duplicated query arrives while a later goal's pipe to the same
    /// peer still waits.  It names the pipe it was for, which has learned
    /// its address, so it is not answered and the waiting pipe learns
    /// nothing; pairing by order gave the waiting pipe the stale address.
    /// Once both have answered, another copy changes nothing either: it
    /// used to fall back on the peer's lowest pipe, rewrite its address and
    /// answer again.
    #[test]
    fn a_duplicated_query_leaves_a_later_waiting_pipe_alone() {
        let mut rig = Rig::new();
        let mut m = IpModule::new(me(), "isp", "10.9.0.1".parse().unwrap());
        for id in [3, 4] {
            let mut answering = adjacency(id, 2);
            answering.initiate = false;
            m.create_pipe(&mut rig.ctx(), &answering).unwrap();
            rig.publish_port(id, 0);
        }
        assert_eq!(answered(&mut m, &mut rig, IpMsg::Query(addr(3)), 3), 1);
        let again = answered(&mut m, &mut rig, IpMsg::Query(addr(3)), 3);
        assert_eq!(again, 0, "the duplicate is not answered");
        assert_eq!(m.pipes[&PipeId(4)].learned, None, "pipe 4 learns nothing");
        assert_eq!(m.exchanges.waiting(), BTreeSet::from([PipeId(4)]));
        assert_eq!(answered(&mut m, &mut rig, IpMsg::Query(addr(4)), 4), 1);
        let again = answered(&mut m, &mut rig, IpMsg::Query(addr(4)), 4);
        assert_eq!(again, 0, "a repeated query is not answered");
        let learned = [3, 4].map(|id| m.pipes[&PipeId(id)].learned);
        assert_eq!(learned, [Some(addr(3)), Some(addr(4))]);
    }

    /// A duplicated answer arrives while a later goal's pipe to the same
    /// peer still waits for its own: it pairs with nothing, and the later
    /// pipe learns only its own answer.
    #[test]
    fn a_duplicated_answer_leaves_a_later_waiting_pipe_alone() {
        let mut rig = Rig::new();
        let mut m = IpModule::new(me(), "isp", "10.9.0.1".parse().unwrap());
        for id in [3, 4] {
            m.create_pipe(&mut rig.ctx(), &adjacency(id, 2)).unwrap();
            rig.publish_port(id, 0);
        }
        assert_eq!(m.poll(&mut rig.ctx()).envelopes.len(), 2);
        for _ in 0..2 {
            assert_eq!(answered(&mut m, &mut rig, IpMsg::Address(addr(3)), 3), 0);
        }
        assert_eq!(m.pipes[&PipeId(4)].learned, None, "pipe 4 learns nothing");
        assert_eq!(m.exchanges.waiting(), BTreeSet::from([PipeId(4)]));
        answered(&mut m, &mut rig, IpMsg::Address(addr(4)), 4);
        let learned = [3, 4].map(|id| m.pipes[&PipeId(id)].learned);
        assert_eq!(learned, [Some(addr(3)), Some(addr(4))]);
        assert!(m.exchanges.waiting().is_empty());
    }

    fn drop_from(module: &ModuleRef, from: &ModuleRef) -> FilterSpec {
        FilterSpec {
            module: *module,
            from: *from,
            to: *module,
        }
    }

    /// Regression: `delete (filter)` fell through `_ => {}` — the rule kept
    /// dropping traffic and `showActual` kept listing it — though every
    /// teardown mirrors a `create (filter)` with exactly that delete.
    #[test]
    fn deleting_a_filter_removes_its_rule_and_its_show_actual_entry() {
        let mut rig = Rig::new();
        let mut m = IpModule::new(me(), "isp", "10.9.0.1".parse().unwrap());
        m.create_pipe(&mut rig.ctx(), &adjacency(3, 2)).unwrap();
        rig.publish_port(3, 0);
        m.handle_envelope(&mut rig.ctx(), &address_message(2, 3, false))
            .unwrap();
        let baseline = rig.config.clone();
        let from = module(ModuleKind::Ip, 1, 2);
        let spec = drop_from(&me(), &from);
        let filter = ComponentRef::Filter(me(), from, me());
        m.create_filter(&mut rig.ctx(), &spec).unwrap();
        let again = Primitive::CreateFilter(spec.clone());
        assert_eq!(m.admit(&again), Err(ModuleError::FilterInUse));
        assert_eq!(rig.config.filters.len(), 1);
        assert_eq!(m.actual(&rig.ctx()).filters, [(from, me())]);
        m.delete(&mut rig.ctx(), &filter).unwrap();
        assert!(m.actual(&rig.ctx()).filters.is_empty());
        assert_eq!(rig.config, baseline);

        // The device's other IP module shares the filter table: a delete
        // takes this module's rule and leaves theirs.
        let vrf = module(ModuleKind::Ip, 5, 1);
        let mut other = IpModule::new(vrf, "customer", "10.0.1.1".parse().unwrap());
        m.create_filter(&mut rig.ctx(), &spec).unwrap();
        other
            .create_filter(&mut rig.ctx(), &drop_from(&vrf, &vrf))
            .unwrap();
        let theirs = rig.config.filters[1].clone();
        m.delete(&mut rig.ctx(), &filter).unwrap();
        m.delete(&mut rig.ctx(), &filter).unwrap();
        assert_eq!(rig.config.filters, [theirs]);
    }

    /// A filter end resolves to this module's own address, or to what it
    /// learned from a module on one of its pipes; any other end is refused.
    /// `admit` is `Ok` exactly when `create_filter` installs, and a refused
    /// end leaves the device as it was.
    #[test]
    fn a_filter_end_resolves_to_itself_or_to_what_it_learned() {
        let mut rig = Rig::new();
        let mut m = IpModule::new(me(), "isp", "10.9.0.1".parse().unwrap());
        // Device 2's IP module answered on pipe 3; device 3's never did on
        // pipe 4; an MPLS module is the peer of pipe 5.
        m.create_pipe(&mut rig.ctx(), &adjacency(3, 2)).unwrap();
        m.create_pipe(&mut rig.ctx(), &adjacency(4, 3)).unwrap();
        let mpls = module(ModuleKind::Mpls, 4, 5);
        let mut towards_mpls = pipe(5, &me(), &module(ModuleKind::Mpls, 4, 1));
        towards_mpls.peer_upper = Some(mpls);
        m.create_pipe(&mut rig.ctx(), &towards_mpls).unwrap();
        rig.publish_port(3, 0);
        rig.publish_port(4, 1);
        m.poll(&mut rig.ctx());
        m.handle_envelope(&mut rig.ctx(), &address_message(2, 3, false))
            .unwrap();

        let rule = |src: [u8; 4]| FilterRule {
            id: 1,
            action: FilterAction::Drop,
            src: Some(Ipv4Cidr::new(Ipv4Addr::from(src), 32)),
            dst: Some(Ipv4Cidr::new(Ipv4Addr::new(10, 9, 0, 1), 32)),
            proto: None,
            dst_port: None,
        };
        let cases = [
            (me(), Some(rule([10, 9, 0, 1]))),
            (module(ModuleKind::Ip, 1, 2), Some(rule([10, 9, 0, 2]))),
            (module(ModuleKind::Ip, 1, 3), None),
            (module(ModuleKind::Ip, 1, 9), None),
            (mpls, None),
        ];
        for (end, installs) in cases {
            let spec = drop_from(&me(), &end);
            let before = rig.config.clone();
            let admitted = m.admit(&Primitive::CreateFilter(spec.clone()));
            m.create_filter(&mut rig.ctx(), &spec).unwrap();
            assert_eq!(rig.config.filters.first(), installs.as_ref(), "{end}");
            match installs {
                Some(_) => {
                    assert_eq!(admitted, Ok(()), "{end}");
                    m.delete(&mut rig.ctx(), &ComponentRef::Filter(me(), end, me()))
                        .unwrap();
                }
                None => assert_eq!(admitted, Err(ModuleError::UnresolvedFilterEnd(end))),
            }
            assert_eq!(rig.config, before);
        }
    }

    /// A gateway rule without a local prefix installs nothing but is applied
    /// all the same.
    #[test]
    fn a_rule_that_installs_nothing_is_still_listed_and_deletable() {
        let mut rig = Rig::new();
        let mut m = IpModule::new(me(), "isp", "10.9.0.1".parse().unwrap());
        let mut rule = switch(&me(), 1, 2);
        rule.gateway = Some(ResolvedName {
            name: "S1-gateway".into(),
            value: "192.168.0.1".into(),
        });
        m.create_switch(&mut rig.ctx(), &rule).unwrap();
        assert!(m.actual(&rig.ctx()).switch_rules.is_empty(), "pending");
        rig.publish_port(2, 0);
        m.poll(&mut rig.ctx());
        assert_eq!(m.actual(&rig.ctx()).switch_rules, [(PipeId(1), PipeId(2))]);
        m.delete(
            &mut rig.ctx(),
            &ComponentRef::SwitchRule(me(), PipeId(1), PipeId(2)),
        )
        .unwrap();
        assert!(m.actual(&rig.ctx()).switch_rules.is_empty());
        assert!(m.installed.is_empty() && m.pending_switches.is_empty());
    }

    /// `attach` names the IP-IP tunnel, so it goes where the tunnel goes: it
    /// used to outlive it, and a re-created rule then skipped `add_tunnel`.
    #[test]
    fn deleting_an_ipip_rule_retracts_the_attachment_and_a_recreated_rule_makes_a_fresh_tunnel() {
        let mut rig = Rig::new();
        rig.config.ip_forwarding = true; // a rule leaves forwarding on
        let mut m = IpModule::new(me(), "isp", "10.9.0.1".parse().unwrap());
        // The endpoint pipe under the customer's IP module, towards the far
        // edge router (device 3), and the adjacency it is reached through;
        // this side initiates both exchanges and each peer answers.
        let mut endpoint = pipe(1, &module(ModuleKind::Ip, 5, 1), &me());
        endpoint.peer_lower = Some(module(ModuleKind::Ip, 1, 3));
        endpoint.peer_pipe = Some(far(1));
        endpoint.initiate = true;
        m.create_pipe(&mut rig.ctx(), &endpoint).unwrap();
        m.create_pipe(&mut rig.ctx(), &adjacency(3, 2)).unwrap();
        rig.publish_port(3, 0);
        assert_eq!(m.poll(&mut rig.ctx()).envelopes.len(), 2);
        for (peer, pipe) in [(3, 1), (2, 3)] {
            m.handle_envelope(&mut rig.ctx(), &address_message(peer, pipe, false))
                .unwrap();
        }
        assert!(m.exchanges.waiting().is_empty());
        let baseline = rig.config.clone();
        let attach = |rig: &Rig| rig.blackboard.pipe(PipeId(1)).attach;
        for round in 0..2 {
            m.create_switch(&mut rig.ctx(), &switch(&me(), 1, 3))
                .unwrap();
            let tunnel = rig.config.tunnels().next().expect("configured").id;
            assert_eq!(
                attach(&rig),
                Some(RouteTarget::Tunnel { tunnel }),
                "round {round}"
            );
            m.delete(
                &mut rig.ctx(),
                &ComponentRef::SwitchRule(me(), PipeId(1), PipeId(3)),
            )
            .unwrap();
            assert_eq!(attach(&rig), None, "round {round}");
            assert_eq!(rig.config, baseline);
        }
    }

    proptest! {
        #[test]
        fn poll_opens_what_a_full_scan_owes(
            ops in proptest::collection::vec((0u8..6, 0u32..5, any::<u8>()), 0..48),
        ) {
            let mut rig = Rig::new();
            let mut m = IpModule::new(me(), "isp", "10.9.0.1".parse().unwrap());
            let (mut created, mut opened) = (BTreeMap::new(), Vec::new());
            for (op, id, bits) in ops {
                let peer = 2 + u64::from(bits & 1);
                match op {
                    // The agent admits no create of a pipe id the device holds.
                    0 | 1 if m.pipes.contains_key(&PipeId(id)) => {}
                    // Create: adjacency, tunnel endpoint, or a pipe that needs
                    // no exchange; initiating or not; IP peer, other or none.
                    0 | 1 => {
                        let mut spec = match bits >> 1 & 3 {
                            0 | 1 => adjacency(id, peer),
                            2 => {
                                let mut spec = pipe(id, &module(ModuleKind::Gre, 3, 1), &me());
                                spec.peer_lower = Some(module(ModuleKind::Ip, 1, peer));
                                spec.peer_pipe = Some(far(id));
                                spec
                            }
                            _ => {
                                let mut spec = pipe(id, &me(), &module(ModuleKind::Mpls, 4, 1));
                                spec.peer_upper = Some(module(ModuleKind::Ip, 1, peer));
                                spec.peer_pipe = Some(far(id));
                                spec
                            }
                        };
                        spec.initiate = bits >> 3 & 1 == 1;
                        match bits >> 4 & 3 {
                            0 => (spec.peer_upper, spec.peer_lower) = (None, None),
                            1 => {
                                let other = Some(module(ModuleKind::Mpls, 4, peer));
                                if spec.peer_upper.is_some() {
                                    spec.peer_upper = other;
                                } else {
                                    spec.peer_lower = other;
                                }
                            }
                            _ => {}
                        }
                        m.create_pipe(&mut rig.ctx(), &spec).unwrap();
                        created.insert(spec.pipe, spec);
                    }
                    2 => rig.publish_port(id, id),
                    3 => {
                        m.handle_envelope(&mut rig.ctx(), &address_message(peer, id, bits & 2 == 0))
                            .unwrap();
                    }
                    4 => {
                        m.delete(&mut rig.ctx(), &ComponentRef::Pipe(PipeId(id)))
                            .unwrap();
                        // The agent drops the pipe's facts with it.
                        rig.blackboard.remove_pipe(PipeId(id));
                        created.remove(&PipeId(id));
                        opened.retain(|pipe| *pipe != PipeId(id));
                    }
                    _ => {
                        let due: Vec<PipeId> = scan(&created, &opened)
                            .into_iter()
                            .filter(|id| {
                                !m.adjacency_pipes.contains(id)
                                    || rig.blackboard.pipe(*id).port.is_some()
                            })
                            .collect();
                        let peers: Vec<(ModuleRef, PipeId)> = (due.iter())
                            .map(|id| (*peer_of(&created[id]).unwrap(), far(id.0)))
                            .collect();
                        let fired = m.poll(&mut rig.ctx());
                        let to: Vec<(ModuleRef, PipeId)> =
                            fired.envelopes.into_iter().map(|env| (env.to, env.pipe)).collect();
                        prop_assert_eq!(to, peers, "poll fires what the scan would, each to its far pipe");
                        opened.extend(due);
                    }
                }
                prop_assert_eq!(owed(&m), scan(&created, &opened));
            }
        }

        #[test]
        fn every_message_round_trips(tag in 0u8..2, addr in any::<u32>()) {
            let addr = Ipv4Addr::from(addr);
            let msg = [IpMsg::Query(addr), IpMsg::Address(addr)][usize::from(tag)];
            prop_assert_eq!(IpMsg::decode(&msg.encode()), Some(msg));
        }

        #[test]
        fn a_mangled_body_is_refused_or_is_exactly_a_message(
            tag in 0u8..2,
            how in any::<u8>(),
            at in any::<usize>(),
            byte in any::<u8>(),
        ) {
            // Pipe 3 waits for the peer's answer, pipe 4 for its query.
            let mut rig = Rig::new();
            let mut m = IpModule::new(me(), "isp", "10.9.0.1".parse().unwrap());
            let mut answering = adjacency(4, 2);
            answering.initiate = false;
            for spec in [adjacency(3, 2), answering] {
                m.create_pipe(&mut rig.ctx(), &spec).unwrap();
                rig.publish_port(spec.pipe.0, 0);
            }
            m.poll(&mut rig.ctx());
            let addr = Ipv4Addr::new(10, 9, 0, 2);
            let valid = [IpMsg::Query(addr), IpMsg::Address(addr)][usize::from(tag)];
            let pipe = PipeId(if matches!(valid, IpMsg::Query(_)) { 4 } else { 3 });
            let mut env = valid.envelope(&module(ModuleKind::Ip, 1, 2), me(), pipe);
            env.body = mangle(&env.body, how, at, byte);
            rig.deliver::<IpMsg>(&mut m, &env);
            let mut waiting = BTreeSet::from([PipeId(3), PipeId(4)]);
            if let Some(msg) = IpMsg::decode(&env.body) {
                if matches!(msg, IpMsg::Query(_)) == matches!(valid, IpMsg::Query(_)) {
                    waiting.remove(&pipe);
                }
            }
            prop_assert_eq!(m.exchanges.waiting(), waiting, "a message pairs with its pipe, a refusal with none");
        }
    }

    /// An answer whose address is cut off used to be dropped as if it had
    /// never been sent, leaving the adjacency waiting for good.
    #[test]
    fn a_response_without_its_address_is_refused() {
        let mut rig = Rig::new();
        let mut m = IpModule::new(me(), "isp", "10.9.0.1".parse().unwrap());
        m.create_pipe(&mut rig.ctx(), &adjacency(3, 2)).unwrap();
        let mut env = address_message(2, 3, false);
        env.body.truncate(3);
        let refused = m.handle_envelope(&mut rig.ctx(), &env);
        assert!(
            matches!(refused, Err(ModuleError::UndecodableBody { .. })),
            "{refused:?}"
        );
        assert_eq!(rig.blackboard.pipe(PipeId(3)).nexthop, None);
        assert_eq!(
            m.exchanges.waiting(),
            BTreeSet::from([PipeId(3)]),
            "still waiting for its peer"
        );
    }
}

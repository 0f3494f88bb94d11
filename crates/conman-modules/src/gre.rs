//! The GRE protocol module (§III-B, Table III).
//!
//! The module keeps every GRE-specific detail — key values, sequence
//! numbers, checksums, the tunnel endpoints — away from the NM (`showActual`
//! lists the module's pipes and switch rules, by id).  The NM only ever says
//! "create a pipe with in-order delivery and low error-rate"; the GRE module
//! negotiates keys and options with its peer GRE module through
//! `conveyMessage` and eventually writes the tunnel into the device
//! configuration (the equivalent of the `ip tunnel add ... ikey 1001 okey
//! 2001 icsum ocsum iseq oseq` line of Figure 7(a)).
//!
//! One module instance carries **multiple tunnels**, keyed by switch rule:
//! each concurrent goal's path contributes its own up/down pipe pair and
//! the rule that names the two, gets its own negotiated key material
//! (derived per up pipe, so tunnels between the same endpoints stay
//! demultiplexable) and its own tunnel in the device configuration.  Two
//! goals can therefore share an edge GRE module the same way they share IP
//! and MPLS modules, instead of the second goal failing its transaction.
//!
//! A proposal and its acceptance are paired with an up pipe the way IP,
//! MPLS and VLAN pair their exchanges, through [`Exchanges`]: each names
//! the up pipe it is for, the proposal opens the exchange and goes out when
//! the initiating side creates its up pipe, and a message its up pipe does
//! not wait for changes nothing.  The agreed
//! parameters belong to the up pipe and outlive its down pipe.

use crate::dialect::{self, Dialect};
use crate::exchange::Exchanges;
use conman_core::abstraction::{
    Dependency, ModuleAbstraction, PerfTradeoff, PerformanceMetric, SwitchKind,
};
use conman_core::ids::{ModuleKind, ModuleRef, PipeId};
use conman_core::module::{ModuleCtx, ModuleError, ModuleReaction, ProtocolModule};
use conman_core::primitives::{
    ComponentRef, EnvelopeKind, ModuleActual, ModuleEnvelope, PipeSpec, Primitive, SwitchSpec,
    TradeoffChoice,
};
use mgmt_channel::codec::{Reader, Writer};
use netsim::config::TunnelConfig;
use netsim::route::RouteTarget;
use netsim::stats::DropReason;
use std::collections::{BTreeMap, BTreeSet};

/// Negotiated GRE parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GreParams {
    ikey: u32,
    okey: u32,
    sequencing: bool,
    checksums: bool,
}

/// What GRE modules convey to each other (`conveyMessage`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GreMsg {
    /// Tag 0, then `ikey` and `okey` (a `u32` varint each) and the two
    /// option bytes: the tunnel parameters the *receiver* is to configure.
    /// Its `ikey` is the key the proposer sends with and its `okey` the one
    /// the proposer accepts.
    Propose(GreParams),
    /// Tag 1: the proposal is agreed.
    Accept,
}

impl Dialect for GreMsg {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        match *self {
            GreMsg::Propose(params) => {
                w.put_u8(0);
                w.put_u32(params.ikey);
                w.put_u32(params.okey);
                w.put_bool(params.sequencing);
                w.put_bool(params.checksums);
            }
            GreMsg::Accept => w.put_u8(1),
        }
        w.finish()
    }

    fn decode(body: &[u8]) -> Option<Self> {
        let mut r = Reader::new(body);
        let msg = match r.u8()? {
            0 => GreMsg::Propose(GreParams {
                ikey: r.u32()?,
                okey: r.u32()?,
                sequencing: r.bool()?,
                checksums: r.bool()?,
            }),
            1 => GreMsg::Accept,
            _ => return None,
        };
        dialect::whole(&r, msg)
    }

    fn kind(&self) -> EnvelopeKind {
        EnvelopeKind::Convey
    }
}

/// Which side of the module a pipe is on.
#[derive(Clone, Copy)]
enum Side {
    /// The pipe to the payload protocol above (e.g. the customer IP
    /// module), with the parameters its tunnel runs with once agreed.
    Up(Option<GreParams>),
    /// The pipe to the delivery protocol below (the ISP IP module).
    Down,
}

/// One of this module's pipes: its side and the rule that stands on it.
struct Pipe {
    side: Side,
    rule: Option<(PipeId, PipeId)>,
}

/// A held switch rule: the tunnel between its up and its down pipe.
struct Tunnel {
    up: PipeId,
    down: PipeId,
    /// The tunnel's id in the device configuration, once `poll` wrote it.
    configured: Option<u32>,
}

/// The GRE protocol module.
pub(crate) struct GreModule {
    me: ModuleRef,
    /// The key exchange of every up pipe that has a peer: the far up pipe
    /// its messages name, who proposes and whether the other side's message
    /// arrived.
    exchanges: Exchanges,
    pipes: BTreeMap<PipeId, Pipe>,
    /// The held rules, keyed `(in pipe, out pipe)`: what `showActual`
    /// lists and `delete` removes.
    tunnels: BTreeMap<(PipeId, PipeId), Tunnel>,
    /// The held rules with no tunnel yet (still waiting for the agreed
    /// parameters or the endpoint addresses).  `poll` visits these and
    /// nothing else.
    armed: BTreeSet<(PipeId, PipeId)>,
}

impl GreModule {
    /// Create a GRE module.
    pub(crate) fn new(me: ModuleRef) -> Self {
        GreModule {
            me,
            exchanges: Exchanges::default(),
            pipes: BTreeMap::new(),
            tunnels: BTreeMap::new(),
            armed: BTreeSet::new(),
        }
    }

    /// Deterministic key material derived from the two endpoints' device
    /// identifiers and the up pipe — the NM never sees or chooses these.
    /// Mixing the pipe in keeps concurrent tunnels between the *same* two
    /// devices on distinct keys, which is what lets the receive side
    /// demultiplex them.
    fn propose_keys(&self, peer: &ModuleRef, up_pipe: PipeId) -> (u32, u32) {
        let salt = 7 * up_pipe.0;
        let a = 1000 + (u64::from(self.me.device) % 997) as u32 + 1 + salt;
        let b = 2000 + (u64::from(peer.device) % 997) as u32 + 1 + salt;
        (a, b)
    }

    /// Drop the held `rule`: its pipes stand under no rule, and its tunnel
    /// goes down with the attachment published on the up pipe; sibling
    /// goals' tunnels stay up.
    fn drop_rule(&mut self, ctx: &mut ModuleCtx, rule: (PipeId, PipeId)) {
        let Some(tunnel) = self.tunnels.remove(&rule) else {
            return;
        };
        self.armed.remove(&rule);
        for pipe in [tunnel.up, tunnel.down] {
            if let Some(pipe) = self.pipes.get_mut(&pipe) {
                pipe.rule = None;
            }
        }
        if let Some(id) = tunnel.configured {
            ctx.config.remove_tunnel(id);
            ctx.blackboard
                .publish(tunnel.up, |facts| facts.attach = None);
        }
    }
}

impl ProtocolModule for GreModule {
    fn reference(&self) -> ModuleRef {
        self.me
    }

    fn descriptor(&self) -> ModuleAbstraction {
        // Table III.
        let mut a = ModuleAbstraction::empty(self.me);
        a.up_connectable = vec![ModuleKind::Ip];
        a.up_dependencies = vec![Dependency::new(
            "tradeoffs",
            "Performance Trade-offs to be specified",
        )];
        a.down_connectable = vec![ModuleKind::Ip];
        a.peerable = vec![ModuleKind::Gre];
        a.switch.kinds = vec![SwitchKind::UpDown, SwitchKind::DownUp];
        a.perf_reporting =
            vec!["number of received and transmitted packets on each up and down pipe".to_string()];
        a.perf_tradeoffs = vec![
            PerfTradeoff {
                costs: vec![PerformanceMetric::Jitter, PerformanceMetric::Delay],
                improves: vec![PerformanceMetric::Ordering],
                applies_to: "Up-pipe".to_string(),
            },
            PerfTradeoff {
                costs: vec![PerformanceMetric::LossRate],
                improves: vec![PerformanceMetric::ErrorRate],
                applies_to: "Up-pipe".to_string(),
            },
        ];
        a
    }

    fn actual(&self, _ctx: &ModuleCtx) -> ModuleActual {
        ModuleActual {
            pipes: self.pipes.keys().copied().collect(),
            switch_rules: self.tunnels.keys().copied().collect(),
            ..Default::default()
        }
    }

    fn fault_domain(&self) -> &'static [DropReason] {
        // Key, sequencing and checksum mismatches.
        &[DropReason::TunnelMismatch]
    }

    fn admit(&self, primitive: &Primitive) -> Result<(), ModuleError> {
        match primitive {
            // An up pipe must say which trade-offs its tunnel makes (the
            // dependency of Table III row iii).
            Primitive::CreatePipe(spec) if spec.lower == self.me && spec.tradeoffs.is_empty() => {
                Err(ModuleError::MissingTradeoffs)
            }
            Primitive::CreateFilter(_) => Err(ModuleError::CannotFilter),
            _ => Ok(()),
        }
    }

    fn delete(
        &mut self,
        ctx: &mut ModuleCtx,
        component: &ComponentRef,
    ) -> Result<ModuleReaction, ModuleError> {
        match component {
            ComponentRef::SwitchRule(module, in_pipe, out_pipe) if *module == self.me => {
                self.drop_rule(ctx, (*in_pipe, *out_pipe));
            }
            // Losing either pipe drops the rule that stands on it.  The up
            // pipe's agreed parameters go with the up pipe only.
            ComponentRef::Pipe(pipe) => {
                self.exchanges.remove(*pipe);
                if let Some(rule) = self.pipes.remove(pipe).and_then(|pipe| pipe.rule) {
                    self.drop_rule(ctx, rule);
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
        let mut reaction = ModuleReaction::none();
        let side = if spec.lower == self.me {
            // Our up pipe: the module above us is the payload protocol.  The
            // side that initiates picks the parameters and proposes them at
            // once; the other side takes them from the proposal.
            let mut params = None;
            if let (Some(peer), Some(peer_pipe)) = (spec.peer_lower, spec.peer_pipe) {
                self.exchanges
                    .add(spec.pipe, &peer, peer_pipe, spec.initiate);
                if spec.initiate {
                    let (ikey, okey) = self.propose_keys(&peer, spec.pipe);
                    let ours = GreParams {
                        ikey,
                        okey,
                        sequencing: spec.tradeoffs.contains(&TradeoffChoice::InOrderDelivery),
                        checksums: spec.tradeoffs.contains(&TradeoffChoice::LowErrorRate),
                    };
                    params = Some(ours);
                    // The peer's view: it accepts what we send and sends
                    // what we accept.
                    let proposal = GreMsg::Propose(GreParams {
                        ikey: okey,
                        okey: ikey,
                        ..ours
                    });
                    let proposal = proposal.envelope(&self.me, peer, peer_pipe);
                    reaction = ModuleReaction::envelope(proposal);
                    self.exchanges.opened(spec.pipe);
                }
            }
            Side::Up(params)
        } else if spec.upper == self.me {
            // Our down pipe: the delivery protocol below us.
            Side::Down
        } else {
            return Ok(reaction);
        };
        self.pipes.insert(spec.pipe, Pipe { side, rule: None });
        Ok(reaction)
    }

    fn create_switch(
        &mut self,
        _ctx: &mut ModuleCtx,
        spec: &SwitchSpec,
    ) -> Result<ModuleReaction, ModuleError> {
        // A rule is a tunnel: it is held when it names one up and one down
        // pipe of this module that stand under no rule yet, and then waits
        // in `armed` for `poll`.
        let rule = (spec.in_pipe, spec.out_pipe);
        let side = |pipe| {
            self.pipes
                .get(&pipe)
                .filter(|p| p.rule.is_none())
                .map(|p| p.side)
        };
        let (up, down) = match (side(rule.0), side(rule.1)) {
            (Some(Side::Up(_)), Some(Side::Down)) => rule,
            (Some(Side::Down), Some(Side::Up(_))) => (rule.1, rule.0),
            _ => return Ok(ModuleReaction::none()),
        };
        for pipe in [up, down] {
            self.pipes.get_mut(&pipe).expect("a held pipe").rule = Some(rule);
        }
        let tunnel = Tunnel {
            up,
            down,
            configured: None,
        };
        self.tunnels.insert(rule, tunnel);
        self.armed.insert(rule);
        Ok(ModuleReaction::none())
    }

    fn handle_envelope(
        &mut self,
        _ctx: &mut ModuleCtx,
        env: &ModuleEnvelope,
    ) -> Result<ModuleReaction, ModuleError> {
        let msg = GreMsg::read(env)?;
        // Only a message the up pipe it names waits for is agreed: a
        // proposal for an up pipe this side answers, an acceptance for one
        // it proposed on, which already holds its parameters.
        let opening = matches!(msg, GreMsg::Propose(_));
        let Some(peer_pipe) = self.exchanges.pair(&env.from, env.pipe, opening) else {
            return Ok(ModuleReaction::none());
        };
        let GreMsg::Propose(params) = msg else {
            return Ok(ModuleReaction::none());
        };
        let up = self.pipes.get_mut(&env.pipe).expect("an exchanging pipe");
        up.side = Side::Up(Some(params));
        Ok(ModuleReaction::envelope(
            GreMsg::Accept.envelope(&self.me, env.from, peer_pipe),
        ))
    }

    fn poll(&mut self, ctx: &mut ModuleCtx) -> ModuleReaction {
        // Armed rules, ascending; one that is still incomplete stays armed.
        let mut configured = Vec::new();
        for rule in &self.armed {
            let tunnel = self.tunnels.get_mut(rule).expect("an armed rule is held");
            let Side::Up(Some(params)) = self.pipes[&tunnel.up].side else {
                continue;
            };
            let endpoints = ctx.blackboard.pipe(tunnel.down);
            let (Some(local), Some(remote)) = (endpoints.local_addr, endpoints.remote_addr) else {
                continue;
            };
            let mut t = TunnelConfig::gre(local, remote);
            t.ikey = Some(params.ikey);
            t.okey = Some(params.okey);
            t.iseq = params.sequencing;
            t.oseq = params.sequencing;
            t.icsum = params.checksums;
            t.ocsum = params.checksums;
            let id = ctx.config.add_tunnel(t);
            ctx.blackboard.publish(tunnel.up, |facts| {
                facts.attach = Some(RouteTarget::Tunnel { tunnel: id })
            });
            tunnel.configured = Some(id);
            configured.push(*rule);
        }
        for rule in configured {
            self.armed.remove(&rule);
        }
        ModuleReaction::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::{far, mangle, module, pipe, switch, Rig};
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

    impl crate::delivery::Exchanging for GreModule {
        fn exchanges(&self) -> &Exchanges {
            &self.exchanges
        }
    }

    fn me() -> ModuleRef {
        module(ModuleKind::Gre, 1, 1)
    }

    fn peer() -> ModuleRef {
        module(ModuleKind::Gre, 1, 2)
    }

    /// The pipe to the customer IP module above, towards the peer GRE module.
    fn up(id: u32, initiate: bool) -> PipeSpec {
        let mut spec = pipe(id, &module(ModuleKind::Ip, 2, 1), &me());
        spec.peer_lower = Some(peer());
        spec.peer_pipe = Some(far(id));
        spec.tradeoffs = vec![TradeoffChoice::InOrderDelivery];
        spec.initiate = initiate;
        spec
    }

    /// The pipe to the ISP IP module below.
    fn down(id: u32) -> PipeSpec {
        pipe(id, &me(), &module(ModuleKind::Ip, 3, 1))
    }

    /// What the IP module below publishes once it has learnt the far end.
    fn publish_endpoints(rig: &mut Rig, down: u32) {
        rig.blackboard.publish(PipeId(down), |facts| {
            facts.local_addr = Some(Ipv4Addr::new(10, 9, 0, 1));
            facts.remote_addr = Some(Ipv4Addr::new(10, 9, 0, 2));
        });
    }

    /// The peer's proposal for our up pipe `up`.
    fn proposal(up: u32) -> ModuleEnvelope {
        GreMsg::Propose(GreParams {
            ikey: 2,
            okey: 1,
            sequencing: true,
            checksums: false,
        })
        .envelope(&peer(), me(), PipeId(up))
    }

    /// The peer's acceptance of what our up pipe `up` proposed.
    fn accept(up: u32) -> ModuleEnvelope {
        GreMsg::Accept.envelope(&peer(), me(), PipeId(up))
    }

    /// A configured tunnel's keys and options.
    fn tunnel_params(t: &TunnelConfig) -> (Option<u32>, Option<u32>, bool, bool) {
        (t.ikey, t.okey, t.iseq, t.icsum)
    }

    /// The parameters the up pipe `id` holds.
    fn params(m: &GreModule, id: u32) -> Option<GreParams> {
        match m.pipes[&PipeId(id)].side {
            Side::Up(params) => params,
            Side::Down => None,
        }
    }

    /// The full scan `poll` would otherwise run: every held rule that has
    /// no tunnel yet, whether or not it is complete.
    fn scan(m: &GreModule) -> BTreeSet<(PipeId, PipeId)> {
        (m.tunnels.iter())
            .filter(|(_, tunnel)| tunnel.configured.is_none())
            .map(|(rule, _)| *rule)
            .collect()
    }

    #[test]
    fn a_configured_tunnel_leaves_nothing_for_poll() {
        let mut rig = Rig::new();
        let mut m = GreModule::new(me());
        let opening = m.create_pipe(&mut rig.ctx(), &up(1, true)).unwrap();
        assert_eq!(opening.envelopes.len(), 1, "the initiator proposes keys");
        m.create_pipe(&mut rig.ctx(), &down(2)).unwrap();
        m.create_switch(&mut rig.ctx(), &switch(&me(), 1, 2))
            .unwrap();
        publish_endpoints(&mut rig, 2);
        m.poll(&mut rig.ctx());
        assert_eq!(rig.config.tunnels().count(), 1);
        assert!(m.armed.is_empty());

        let (config, changes) = (rig.config.clone(), rig.blackboard.changes());
        assert!(m.poll(&mut rig.ctx()).is_empty());
        assert_eq!(
            rig.config, config,
            "an idle poll leaves the data plane alone"
        );
        assert_eq!(rig.blackboard.changes(), changes);
    }

    #[test]
    fn an_armed_rule_waits_for_the_endpoint_addresses() {
        let mut rig = Rig::new();
        let mut m = GreModule::new(me());
        m.create_pipe(&mut rig.ctx(), &up(1, true)).unwrap();
        m.create_pipe(&mut rig.ctx(), &down(2)).unwrap();
        m.create_switch(&mut rig.ctx(), &switch(&me(), 1, 2))
            .unwrap();
        m.poll(&mut rig.ctx());
        assert!(
            rig.config.tunnels().next().is_none(),
            "no addresses published yet"
        );
        assert_eq!(m.armed.len(), 1);
        publish_endpoints(&mut rig, 2);
        m.poll(&mut rig.ctx());
        assert_eq!(rig.config.tunnels().count(), 1);
        assert_eq!(
            rig.blackboard.pipe(PipeId(1)).attach,
            Some(RouteTarget::Tunnel { tunnel: 1 })
        );
    }

    /// A rule is held only when it names one up and one down pipe of this
    /// module, so a rule naming pipes it does not have arms nothing.
    #[test]
    fn a_rule_naming_unknown_pipes_arms_nothing() {
        let mut rig = Rig::new();
        let mut m = GreModule::new(me());
        m.create_pipe(&mut rig.ctx(), &up(1, true)).unwrap();
        m.create_pipe(&mut rig.ctx(), &up(3, true)).unwrap();
        m.create_pipe(&mut rig.ctx(), &down(2)).unwrap();
        publish_endpoints(&mut rig, 2);
        for (in_pipe, out_pipe) in [(7, 8), (1, 8), (7, 2), (1, 3), (2, 2)] {
            m.create_switch(&mut rig.ctx(), &switch(&me(), in_pipe, out_pipe))
                .unwrap();
        }
        assert!(m.armed.is_empty() && m.tunnels.is_empty());
        assert!(m.pipes.values().all(|pipe| pipe.rule.is_none()));
        m.poll(&mut rig.ctx());
        assert!(rig.config.tunnels().next().is_none());
        assert!(m.actual(&rig.ctx()).switch_rules.is_empty());
    }

    #[test]
    fn deleting_the_pipes_clears_every_index_and_recreated_pipes_negotiate_again() {
        let mut rig = Rig::new();
        let mut m = GreModule::new(me());
        for round in 0..2 {
            let opening = m.create_pipe(&mut rig.ctx(), &up(1, true)).unwrap();
            assert_eq!(opening.envelopes.len(), 1, "round {round}");
            m.create_pipe(&mut rig.ctx(), &down(2)).unwrap();
            m.create_switch(&mut rig.ctx(), &switch(&me(), 1, 2))
                .unwrap();
            publish_endpoints(&mut rig, 2);
            m.poll(&mut rig.ctx());
            assert_eq!(rig.config.tunnels().count(), 1, "round {round}");

            m.delete(&mut rig.ctx(), &ComponentRef::Pipe(PipeId(1)))
                .unwrap();
            assert!(
                rig.config.tunnels().next().is_none(),
                "losing a side drops the tunnel"
            );
            assert_eq!(m.pipes.keys().collect::<Vec<_>>(), [&PipeId(2)]);
            assert!(m.tunnels.is_empty() && m.pipes[&PipeId(2)].rule.is_none());
            m.delete(&mut rig.ctx(), &ComponentRef::Pipe(PipeId(2)))
                .unwrap();
            assert!(m.pipes.is_empty() && m.tunnels.is_empty() && m.armed.is_empty());
            assert!(m.exchanges.is_empty());
        }
    }

    /// `attach` names the tunnel, so it goes where the tunnel goes: it used
    /// to outlive it on the surviving up pipe, while tunnel ids are reused.
    #[test]
    fn losing_the_down_pipe_retracts_the_attachment_and_a_new_tunnel_publishes_a_fresh_one() {
        let mut rig = Rig::new();
        let baseline = rig.config.clone();
        let mut m = GreModule::new(me());
        m.create_pipe(&mut rig.ctx(), &up(1, true)).unwrap();
        let attach = |rig: &Rig| rig.blackboard.pipe(PipeId(1)).attach;
        // The surviving up pipe keeps the parameters it proposed, so every
        // round's new down pipe makes a tunnel without a new exchange.
        for round in 0..2 {
            m.create_pipe(&mut rig.ctx(), &down(2)).unwrap();
            m.create_switch(&mut rig.ctx(), &switch(&me(), 1, 2))
                .unwrap();
            publish_endpoints(&mut rig, 2);
            m.poll(&mut rig.ctx());
            let tunnel = rig.config.tunnels().next().expect("configured").id;
            assert_eq!(
                attach(&rig),
                Some(RouteTarget::Tunnel { tunnel }),
                "round {round}"
            );

            m.delete(&mut rig.ctx(), &ComponentRef::Pipe(PipeId(2)))
                .unwrap();
            rig.blackboard.remove_pipe(PipeId(2));
            assert_eq!(attach(&rig), None, "round {round}");
            assert_eq!(rig.blackboard.pipes().count(), 0, "no fact, no entry");
            assert_eq!(rig.config, baseline);
        }
    }

    /// The proposer picks its parameters once, when its up pipe is made,
    /// and nobody proposes again: losing only the down pipe used to forget
    /// them, and no tunnel was made on the next down pipe.
    #[test]
    fn a_proposer_that_loses_only_its_down_pipe_makes_a_tunnel_again() {
        let mut rig = Rig::new();
        let mut m = GreModule::new(me());
        m.create_pipe(&mut rig.ctx(), &up(1, true)).unwrap();
        let keys = m.propose_keys(&peer(), PipeId(1));
        for round in 0..2 {
            m.create_pipe(&mut rig.ctx(), &down(2)).unwrap();
            m.create_switch(&mut rig.ctx(), &switch(&me(), 1, 2))
                .unwrap();
            publish_endpoints(&mut rig, 2);
            m.poll(&mut rig.ctx());
            let tunnels: Vec<_> = rig.config.tunnels().map(tunnel_params).collect();
            assert_eq!(
                tunnels,
                [(Some(keys.0), Some(keys.1), true, false)],
                "round {round}"
            );
            m.delete(&mut rig.ctx(), &ComponentRef::Pipe(PipeId(2)))
                .unwrap();
            rig.blackboard.remove_pipe(PipeId(2));
        }
    }

    /// A proposal no waiting up pipe takes changes nothing: a pipe with no
    /// peer used to adopt the first proposer, answer it and keep its keys,
    /// so the real peer's proposal was dropped.
    #[test]
    fn a_strangers_proposal_is_not_adopted() {
        let mut rig = Rig::new();
        let mut m = GreModule::new(me());
        m.create_pipe(&mut rig.ctx(), &down(2)).unwrap();
        let stranger = GreMsg::Propose(GreParams {
            ikey: 77,
            okey: 66,
            sequencing: false,
            checksums: true,
        })
        .envelope(&module(ModuleKind::Gre, 1, 7), me(), PipeId(1));
        let answer = m.handle_envelope(&mut rig.ctx(), &stranger).unwrap();
        assert!(answer.envelopes.is_empty(), "the stranger is not answered");

        m.create_pipe(&mut rig.ctx(), &up(1, false)).unwrap();
        let answer = m.handle_envelope(&mut rig.ctx(), &proposal(1)).unwrap();
        assert_eq!(answer.envelopes.len(), 1, "the peer is answered");
        assert_eq!(
            answer.envelopes[0].pipe,
            far(1),
            "the answer names the peer's pipe"
        );
        m.create_switch(&mut rig.ctx(), &switch(&me(), 1, 2))
            .unwrap();
        publish_endpoints(&mut rig, 2);
        m.poll(&mut rig.ctx());
        let tunnels: Vec<_> = rig.config.tunnels().map(tunnel_params).collect();
        assert_eq!(
            tunnels,
            [(Some(2), Some(1), true, false)],
            "the tunnel takes the peer's keys"
        );
    }

    /// A duplicated proposal arrives while a later goal's up pipe to the
    /// same peer still waits.  It names the pipe it was for, which has its
    /// keys, so it is not answered and the waiting pipe takes nothing;
    /// pairing by order gave the waiting pipe the stale keys.
    #[test]
    fn a_duplicated_proposal_leaves_a_later_waiting_pipe_alone() {
        let mut rig = Rig::new();
        let mut m = GreModule::new(me());
        for id in [1, 3] {
            m.create_pipe(&mut rig.ctx(), &up(id, false)).unwrap();
        }
        fn keys(up: u32) -> GreParams {
            GreParams {
                ikey: up,
                okey: up + 1,
                sequencing: true,
                checksums: false,
            }
        }
        let propose = |m: &mut GreModule, rig: &mut Rig, up: u32| {
            let env = GreMsg::Propose(keys(up)).envelope(&peer(), me(), PipeId(up));
            m.handle_envelope(&mut rig.ctx(), &env).unwrap().envelopes
        };
        assert_eq!(propose(&mut m, &mut rig, 1).len(), 1);
        let again = propose(&mut m, &mut rig, 1);
        assert!(again.is_empty(), "the duplicate is not answered");
        assert_eq!(params(&m, 3), None, "the waiting pipe takes nothing");
        assert_eq!(m.exchanges.waiting(), BTreeSet::from([PipeId(3)]));
        assert_eq!(propose(&mut m, &mut rig, 3)[0].pipe, far(3));
        assert_eq!(
            [params(&m, 1), params(&m, 3)],
            [Some(keys(1)), Some(keys(3))]
        );
    }

    /// A duplicated acceptance arrives while a later goal's up pipe to the
    /// same peer still waits for its own: it pairs with nothing, and the
    /// later pipe waits until its own acceptance arrives.
    #[test]
    fn a_duplicated_acceptance_leaves_a_later_waiting_pipe_alone() {
        let mut rig = Rig::new();
        let mut m = GreModule::new(me());
        for id in [1, 3] {
            m.create_pipe(&mut rig.ctx(), &up(id, true)).unwrap();
        }
        let proposed = [params(&m, 1), params(&m, 3)];
        for (up, waiting) in [(1, vec![3]), (1, vec![3]), (3, vec![])] {
            let answer = m.handle_envelope(&mut rig.ctx(), &accept(up)).unwrap();
            assert!(answer.envelopes.is_empty(), "an acceptance is not answered");
            let waiting: BTreeSet<PipeId> = waiting.into_iter().map(PipeId).collect();
            assert_eq!(m.exchanges.waiting(), waiting, "after accepting {up}");
        }
        assert_eq!([params(&m, 1), params(&m, 3)], proposed);
    }

    /// `delete (switch)` undoes `create (switch)`: the rule is listed while
    /// it stands, and deleting it takes its tunnel and the attachment down.
    #[test]
    fn deleting_a_gre_rule_retracts_the_attachment_and_a_recreated_rule_makes_a_fresh_tunnel() {
        let mut rig = Rig::new();
        let mut m = GreModule::new(me());
        m.create_pipe(&mut rig.ctx(), &up(1, true)).unwrap();
        m.create_pipe(&mut rig.ctx(), &down(2)).unwrap();
        publish_endpoints(&mut rig, 2);
        let baseline = rig.config.clone();
        let attach = |rig: &Rig| rig.blackboard.pipe(PipeId(1)).attach;
        let rules = |m: &GreModule, rig: &mut Rig| m.actual(&rig.ctx()).switch_rules;
        for round in 0..2 {
            m.create_switch(&mut rig.ctx(), &switch(&me(), 1, 2))
                .unwrap();
            assert_eq!(
                rules(&m, &mut rig),
                [(PipeId(1), PipeId(2))],
                "round {round}"
            );
            m.poll(&mut rig.ctx());
            let tunnel = rig.config.tunnels().next().expect("configured").id;
            assert_eq!(
                attach(&rig),
                Some(RouteTarget::Tunnel { tunnel }),
                "round {round}"
            );

            let rule = ComponentRef::SwitchRule(me(), PipeId(1), PipeId(2));
            m.delete(&mut rig.ctx(), &rule).unwrap();
            assert!(rules(&m, &mut rig).is_empty(), "round {round}");
            assert_eq!(attach(&rig), None, "round {round}");
            assert_eq!(rig.config, baseline, "round {round}");
            assert!(m.armed.is_empty() && m.tunnels.is_empty());
            assert!(m.pipes.values().all(|pipe| pipe.rule.is_none()));
        }
    }

    proptest! {
        #[test]
        fn armed_rules_equal_the_full_scan_and_each_pipe_names_a_held_rule(
            ops in proptest::collection::vec((0u8..9, 0u32..3, any::<u8>()), 0..48),
        ) {
            let mut rig = Rig::new();
            let mut m = GreModule::new(me());
            // Up pipes are 0..3, down pipes 10..13.
            for (op, id, bits) in ops {
                let held = |m: &GreModule, pipe| m.pipes.contains_key(&PipeId(pipe));
                let rule = (id, 10 + u32::from(bits % 3));
                let rule = if bits & 4 == 0 { rule } else { (rule.1, rule.0) };
                match op {
                    // The agent admits no create of a pipe id the device holds.
                    0 if held(&m, id) => {}
                    1 if held(&m, 10 + id) => {}
                    0 => drop(m.create_pipe(&mut rig.ctx(), &up(id, bits & 1 == 1)).unwrap()),
                    1 => drop(m.create_pipe(&mut rig.ctx(), &down(10 + id)).unwrap()),
                    2 => {
                        m.create_switch(&mut rig.ctx(), &switch(&me(), rule.0, rule.1)).unwrap();
                    }
                    3 => drop(m.handle_envelope(&mut rig.ctx(), &proposal(id)).unwrap()),
                    4 => drop(m.handle_envelope(&mut rig.ctx(), &accept(id)).unwrap()),
                    5 => publish_endpoints(&mut rig, 10 + id),
                    6 => {
                        let pipe = PipeId(if bits & 1 == 0 { id } else { 10 + id });
                        m.delete(&mut rig.ctx(), &ComponentRef::Pipe(pipe)).unwrap();
                        rig.blackboard.remove_pipe(pipe);
                    }
                    7 => {
                        let rule = ComponentRef::SwitchRule(me(), PipeId(rule.0), PipeId(rule.1));
                        m.delete(&mut rig.ctx(), &rule).unwrap();
                    }
                    _ => {
                        let due = scan(&m)
                            .into_iter()
                            .filter(|rule| {
                                let tunnel = &m.tunnels[rule];
                                matches!(m.pipes[&tunnel.up].side, Side::Up(Some(_)))
                                    && rig.blackboard.pipe(tunnel.down).remote_addr.is_some()
                            })
                            .count();
                        let before = rig.config.tunnels().count();
                        m.poll(&mut rig.ctx());
                        prop_assert_eq!(rig.config.tunnels().count() - before, due);
                    }
                }
                prop_assert_eq!(&m.armed, &scan(&m));
                // A held rule names its own up and down pipe, and each pipe's
                // rule is one that is held and names it.
                for (rule, tunnel) in &m.tunnels {
                    prop_assert!(*rule == (tunnel.up, tunnel.down) || *rule == (tunnel.down, tunnel.up));
                    prop_assert!(matches!(m.pipes[&tunnel.up].side, Side::Up(_)));
                    prop_assert!(matches!(m.pipes[&tunnel.down].side, Side::Down));
                }
                for (pipe, rec) in &m.pipes {
                    if let Some(rule) = rec.rule {
                        let tunnel = &m.tunnels[&rule];
                        prop_assert!(tunnel.up == *pipe || tunnel.down == *pipe);
                    }
                }
                let standing = m.pipes.values().filter(|rec| rec.rule.is_some()).count();
                prop_assert_eq!(standing, 2 * m.tunnels.len());
                // An up pipe knows its parameters once it proposed them or a
                // proposal paired with it.
                let waiting = m.exchanges.waiting();
                for (pipe, rec) in &m.pipes {
                    if let Side::Up(params) = rec.side {
                        let agreed = m.exchanges.initiates(*pipe) || !waiting.contains(pipe);
                        prop_assert_eq!(params.is_some(), agreed);
                    }
                }
            }
        }

        #[test]
        fn every_message_round_trips(
            propose in any::<bool>(),
            keys in (any::<u32>(), any::<u32>()),
            options in (any::<bool>(), any::<bool>()),
        ) {
            let msg = if propose {
                GreMsg::Propose(GreParams {
                    ikey: keys.0,
                    okey: keys.1,
                    sequencing: options.0,
                    checksums: options.1,
                })
            } else {
                GreMsg::Accept
            };
            prop_assert_eq!(GreMsg::decode(&msg.encode()), Some(msg));
        }

        #[test]
        fn a_mangled_body_is_refused_or_is_exactly_a_message(
            propose in any::<bool>(),
            how in any::<u8>(),
            at in any::<usize>(),
            byte in any::<u8>(),
        ) {
            // Pipe 1 waits for the peer's proposal, pipe 3 for its
            // acceptance.
            let mut rig = Rig::new();
            let mut m = GreModule::new(me());
            m.create_pipe(&mut rig.ctx(), &up(1, false)).unwrap();
            m.create_pipe(&mut rig.ctx(), &up(3, true)).unwrap();
            m.create_pipe(&mut rig.ctx(), &down(2)).unwrap();
            let mut env = if propose { proposal(1) } else { accept(3) };
            env.body = mangle(&env.body, how, at, byte);
            rig.deliver::<GreMsg>(&mut m, &env);
            let mut waiting = BTreeSet::from([PipeId(1), PipeId(3)]);
            match GreMsg::decode(&env.body) {
                Some(GreMsg::Propose(agreed)) => {
                    waiting.remove(&PipeId(1));
                    prop_assert_eq!(params(&m, 1), Some(agreed));
                }
                Some(GreMsg::Accept) => drop(waiting.remove(&PipeId(3))),
                None => prop_assert_eq!(params(&m, 1), None),
            }
            prop_assert_eq!(m.exchanges.waiting(), waiting, "a message pairs with its pipe, a refusal with none");
        }
    }

    /// A proposal cut off after its tag used to agree on key 0 for both
    /// directions; it is refused and the up pipe keeps waiting for its keys.
    #[test]
    fn a_proposal_without_its_keys_is_refused() {
        let mut rig = Rig::new();
        let mut m = GreModule::new(me());
        m.create_pipe(&mut rig.ctx(), &up(1, false)).unwrap();
        let mut env = proposal(1);
        env.body.truncate(1);
        let refused = m.handle_envelope(&mut rig.ctx(), &env);
        assert!(
            matches!(refused, Err(ModuleError::UndecodableBody { .. })),
            "{refused:?}"
        );
        assert_eq!(params(&m, 1), None);
        assert_eq!(m.exchanges.waiting(), BTreeSet::from([PipeId(1)]));
        let agreed = m.handle_envelope(&mut rig.ctx(), &proposal(1)).unwrap();
        assert_eq!(agreed.envelopes[0].body, GreMsg::Accept.encode());
        assert_eq!(params(&m, 1).map(|p| (p.ikey, p.okey)), Some((2, 1)));
    }
}

//! The MPLS protocol module.
//!
//! Labels are allocated and distributed between adjacent MPLS modules via
//! `conveyMessage`; the NM never sees a label — `showActual` lists an LSP's
//! rule by its two pipe ids and has no field for one.  The module then
//! installs the ILM / NHLFE / cross-connect entries that the Figure 8(a)
//! script created by hand (`mpls nhlfe add`, `mpls ilm add`, `mpls xc add`).

use crate::dialect::{self, Dialect};
use crate::exchange::Exchanges;
use conman_core::abstraction::{ModuleAbstraction, SwitchKind};
use conman_core::ids::{ModuleKind, ModuleRef, PipeId};
use conman_core::module::{ModuleCtx, ModuleError, ModuleReaction, ProtocolModule};
use conman_core::primitives::{
    ComponentRef, EnvelopeKind, ModuleActual, ModuleEnvelope, Notice, Notification, PipeSpec,
    SwitchSpec,
};
use mgmt_channel::codec::{Reader, Writer};
use netsim::mpls::{IlmEntry, Label, LabelOp, Nhlfe, NhlfeKey};
use netsim::route::RouteTarget;
use netsim::stats::DropReason;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// What MPLS modules convey to each other: one half of a label exchange.
/// Tag 0, then the fields in order: the label as a `u32` varint, the
/// address as four raw bytes, the reply byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MplsMsg {
    /// The label the sender allocated for traffic it receives from the
    /// peer; a body carrying more than 20 bits does not decode.
    label: u32,
    /// The sender's address on the shared link (the peer's NHLFE next hop).
    address: Ipv4Addr,
    /// Whether this answers the peer's half rather than opening one.
    reply: bool,
}

impl Dialect for MplsMsg {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.put_u8(0);
        w.put_u32(self.label);
        dialect::put_addr(&mut w, self.address);
        w.put_bool(self.reply);
        w.finish()
    }

    fn decode(body: &[u8]) -> Option<Self> {
        let mut r = Reader::new(body);
        if r.u8()? != 0 {
            return None;
        }
        let label = Label::new(r.u32()?)?.value();
        let msg = MplsMsg {
            label,
            address: dialect::addr(&mut r)?,
            reply: r.bool()?,
        };
        dialect::whole(&r, msg)
    }

    fn kind(&self) -> EnvelopeKind {
        EnvelopeKind::Convey
    }
}

/// Per-adjacency label state.
#[derive(Debug, Clone, Default)]
struct Adjacency {
    /// Label we allocated for traffic we will receive from this peer.
    in_label: Option<u32>,
    /// Label the peer allocated (we push/swap to it when sending to them).
    out_label: Option<u32>,
    /// The peer's address on the shared link (the NHLFE next hop).
    peer_addr: Option<Ipv4Addr>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PipeKind {
    /// Pipe to an IP module above us: the LSP enters/leaves here.
    Access,
    /// Pipe over an ETH module towards an adjacent MPLS module.
    Adjacency,
}

/// Label-plane artifacts one switch rule installed, so `delete` can undo
/// them during self-healing teardown.
#[derive(Debug, Clone, Default)]
struct InstalledLsp {
    nhlfe: Vec<NhlfeKey>,
    xc: Vec<(u16, u32)>,
    /// The access pipe an endpoint rule published its push NHLFE on.
    access: Option<PipeId>,
}

/// The MPLS protocol module.
pub(crate) struct MplsModule {
    me: ModuleRef,
    pipes: BTreeMap<PipeId, PipeKind>,
    adjacencies: BTreeMap<PipeId, Adjacency>,
    /// The label exchange of every adjacency with a peer: whom it is with,
    /// the far adjacency its messages name, who opens it and how far it got.
    exchanges: Exchanges,
    pending_switches: Vec<SwitchSpec>,
    /// Applied switch rules keyed `(in, out)`: what `showActual` lists and
    /// `delete` removes.
    installed: BTreeMap<(PipeId, PipeId), InstalledLsp>,
    next_label: u32,
    notified: bool,
}

impl MplsModule {
    /// Create an MPLS module.  Label allocation is seeded from the device id
    /// so labels are stable and distinct across devices.
    pub(crate) fn new(me: ModuleRef) -> Self {
        let next_label = 10_000 + (u64::from(me.device) % 89) as u32 * 100;
        MplsModule {
            me,
            pipes: BTreeMap::new(),
            adjacencies: BTreeMap::new(),
            exchanges: Exchanges::default(),
            pending_switches: Vec::new(),
            installed: BTreeMap::new(),
            next_label,
            notified: false,
        }
    }

    fn alloc_label(&mut self) -> u32 {
        self.next_label += 1;
        self.next_label
    }

    /// Apply a pending switch rule once the necessary label bindings exist.
    fn try_apply_switch(
        &mut self,
        ctx: &mut ModuleCtx,
        spec: &SwitchSpec,
    ) -> Option<Vec<Notification>> {
        let kinds = (
            self.pipes.get(&spec.in_pipe).copied(),
            self.pipes.get(&spec.out_pipe).copied(),
        );
        let mut notifications = Vec::new();
        match kinds {
            // LSP endpoint: one access pipe (to IP) and one adjacency pipe.
            (Some(PipeKind::Access), Some(PipeKind::Adjacency))
            | (Some(PipeKind::Adjacency), Some(PipeKind::Access)) => {
                let (access, adjacency) = if kinds.0 == Some(PipeKind::Access) {
                    (spec.in_pipe, spec.out_pipe)
                } else {
                    (spec.out_pipe, spec.in_pipe)
                };
                let adj = self.adjacencies.get(&adjacency)?;
                let (Some(in_label), Some(out_label), Some(peer_addr)) =
                    (adj.in_label, adj.out_label, adj.peer_addr)
                else {
                    return None;
                };
                let initiate = self.exchanges.initiates(adjacency);
                let port = ctx.blackboard.pipe(adjacency).port?;
                let installed = self
                    .installed
                    .entry((spec.in_pipe, spec.out_pipe))
                    .or_default();
                // Outgoing direction: push the peer's label.
                let push_key = ctx.config.mpls.alloc_key();
                ctx.config.mpls.add_nhlfe(Nhlfe {
                    key: push_key,
                    op: LabelOp::Push(Label::new(out_label).expect("20-bit label")),
                    nexthop: peer_addr,
                    out_port: port,
                    mtu: 1500,
                });
                ctx.blackboard.publish(access, |facts| {
                    facts.attach = Some(RouteTarget::Mpls { nhlfe: push_key })
                });
                installed.access = Some(access);
                // Incoming direction: pop our label and hand the packet to
                // the local IP module for routing towards the customer.
                let pop_key = ctx.config.mpls.alloc_key();
                ctx.config.mpls.add_nhlfe(Nhlfe {
                    key: pop_key,
                    op: LabelOp::Pop,
                    nexthop: Ipv4Addr::UNSPECIFIED,
                    out_port: port,
                    mtu: 1500,
                });
                ctx.config.mpls.add_xc(
                    IlmEntry {
                        labelspace: 0,
                        label: Label::new(in_label).expect("20-bit label"),
                    },
                    pop_key,
                );
                installed.nhlfe.extend([push_key, pop_key]);
                installed.xc.push((0, in_label));
                // The egress end of the LSP (the endpoint that did not start
                // the label exchange) notifies the NM that the LSP is up.
                if !initiate && !self.notified {
                    self.notified = true;
                    notifications.push(Notification {
                        from: self.me,
                        body: Notice::Established,
                    });
                }
                Some(notifications)
            }
            // Transit: two adjacency pipes; swap labels in both directions.
            (Some(PipeKind::Adjacency), Some(PipeKind::Adjacency)) => {
                for (from_pipe, to_pipe) in
                    [(spec.in_pipe, spec.out_pipe), (spec.out_pipe, spec.in_pipe)]
                {
                    let from = self.adjacencies.get(&from_pipe)?;
                    let to = self.adjacencies.get(&to_pipe)?;
                    let (Some(in_label), Some(out_label), Some(next)) =
                        (from.in_label, to.out_label, to.peer_addr)
                    else {
                        return None;
                    };
                    // Labels arrive in labelspace 0, every port's unless
                    // configured otherwise, so the in port is only awaited.
                    ctx.blackboard.pipe(from_pipe).port?;
                    let out_port = ctx.blackboard.pipe(to_pipe).port?;
                    let key = ctx.config.mpls.alloc_key();
                    ctx.config.mpls.add_nhlfe(Nhlfe {
                        key,
                        op: LabelOp::Swap(Label::new(out_label).expect("20-bit label")),
                        nexthop: next,
                        out_port,
                        mtu: 1500,
                    });
                    ctx.config.mpls.add_xc(
                        IlmEntry {
                            labelspace: 0,
                            label: Label::new(in_label).expect("20-bit label"),
                        },
                        key,
                    );
                    let installed = self
                        .installed
                        .entry((spec.in_pipe, spec.out_pipe))
                        .or_default();
                    installed.nhlfe.push(key);
                    installed.xc.push((0, in_label));
                }
                Some(notifications)
            }
            _ => None,
        }
    }
}

impl ProtocolModule for MplsModule {
    fn reference(&self) -> ModuleRef {
        self.me
    }

    fn descriptor(&self) -> ModuleAbstraction {
        let mut a = ModuleAbstraction::empty(self.me);
        a.up_connectable = vec![ModuleKind::Ip];
        a.down_connectable = vec![ModuleKind::Eth];
        a.peerable = vec![ModuleKind::Mpls];
        a.switch.kinds = vec![SwitchKind::DownUp, SwitchKind::UpDown, SwitchKind::DownDown];
        a.perf_reporting = vec!["labelled packets forwarded per cross-connect".to_string()];
        // The paper's NM prefers the MPLS path because the abstraction
        // advertises good forwarding bandwidth.
        a.fast_forwarding = true;
        a.perf_enforcement = vec!["label-switched forwarding at line rate".to_string()];
        a
    }

    fn actual(&self, _ctx: &ModuleCtx) -> ModuleActual {
        ModuleActual {
            pipes: self.pipes.keys().copied().collect(),
            switch_rules: self.installed.keys().copied().collect(),
            filters: Vec::new(),
        }
    }

    fn fault_domain(&self) -> &'static [DropReason] {
        // Labels no cross-connect matches.
        &[DropReason::NoLabel]
    }

    fn delete(
        &mut self,
        ctx: &mut ModuleCtx,
        component: &ComponentRef,
    ) -> Result<ModuleReaction, ModuleError> {
        match component {
            ComponentRef::SwitchRule(module, in_pipe, out_pipe) if *module == self.me => {
                if let Some(installed) = self.installed.remove(&(*in_pipe, *out_pipe)) {
                    for key in &installed.nhlfe {
                        ctx.config.mpls.remove_nhlfe(*key);
                    }
                    if let Some(access) = installed.access {
                        ctx.blackboard.publish(access, |facts| facts.attach = None);
                    }
                    for (labelspace, label) in &installed.xc {
                        if let Some(label) = Label::new(*label) {
                            ctx.config.mpls.remove_xc(IlmEntry {
                                labelspace: *labelspace,
                                label,
                            });
                        }
                    }
                }
                self.pending_switches
                    .retain(|s| !(s.in_pipe == *in_pipe && s.out_pipe == *out_pipe));
            }
            ComponentRef::Pipe(pipe) => {
                self.pipes.remove(pipe);
                self.adjacencies.remove(pipe);
                self.exchanges.remove(*pipe);
                self.pending_switches
                    .retain(|s| s.in_pipe != *pipe && s.out_pipe != *pipe);
                self.notified = false;
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
        if spec.lower == self.me {
            // Pipe to the IP module above: the LSP access point.
            self.pipes.insert(spec.pipe, PipeKind::Access);
        } else {
            // Pipe over an ETH module towards the adjacent MPLS module.
            self.pipes.insert(spec.pipe, PipeKind::Adjacency);
            self.adjacencies.insert(spec.pipe, Adjacency::default());
            if let (Some(peer), Some(peer_pipe)) = (&spec.peer_upper, spec.peer_pipe) {
                self.exchanges
                    .add(spec.pipe, peer, peer_pipe, spec.initiate);
            }
        }
        Ok(ModuleReaction::none())
    }

    fn create_switch(
        &mut self,
        ctx: &mut ModuleCtx,
        spec: &SwitchSpec,
    ) -> Result<ModuleReaction, ModuleError> {
        let mut reaction = ModuleReaction::none();
        match self.try_apply_switch(ctx, spec) {
            Some(n) => reaction.notifications.extend(n),
            None => self.pending_switches.push(spec.clone()),
        }
        Ok(reaction)
    }

    fn handle_envelope(
        &mut self,
        ctx: &mut ModuleCtx,
        env: &ModuleEnvelope,
    ) -> Result<ModuleReaction, ModuleError> {
        let MplsMsg {
            label,
            address,
            reply,
        } = MplsMsg::read(env)?;
        // Concurrent goals run separate LSPs over the same physical
        // adjacency, in either direction: the half names its adjacency, and
        // pairs only when that adjacency waits for it.
        let pipe = env.pipe;
        let Some(peer_pipe) = self.exchanges.pair(&env.from, pipe, !reply) else {
            return Ok(ModuleReaction::none());
        };
        let our_label = match self.adjacencies[&pipe].in_label {
            Some(l) => l,
            None => self.alloc_label(),
        };
        let port = ctx.blackboard.pipe(pipe).port;
        let our_addr = port
            .and_then(|p| ctx.config.address_on_port(p))
            .map(|c| c.addr)
            .unwrap_or(Ipv4Addr::UNSPECIFIED);
        let adj = self.adjacencies.get_mut(&pipe).expect("adjacency exists");
        adj.in_label = Some(our_label);
        adj.out_label = Some(label);
        adj.peer_addr = Some(address);
        if !reply {
            let answer = MplsMsg {
                label: our_label,
                address: our_addr,
                reply: true,
            };
            return Ok(ModuleReaction::envelope(
                answer.envelope(&self.me, env.from, peer_pipe),
            ));
        }
        Ok(ModuleReaction::none())
    }

    fn poll(&mut self, ctx: &mut ModuleCtx) -> ModuleReaction {
        let mut reaction = ModuleReaction::none();
        // Initiate pending label exchanges once the underlying port is
        // known.
        let ready: Vec<(PipeId, u32, ModuleRef, PipeId)> = (self.exchanges.owed())
            .filter_map(|(pipe, peer, far)| {
                Some((pipe, ctx.blackboard.pipe(pipe).port?, peer, far))
            })
            .collect();
        for (pipe, port, peer, peer_pipe) in ready {
            let our_addr = ctx
                .config
                .address_on_port(port)
                .map(|c| c.addr)
                .unwrap_or(Ipv4Addr::UNSPECIFIED);
            let label = match self.adjacencies[&pipe].in_label {
                Some(l) => l,
                None => self.alloc_label(),
            };
            self.adjacencies
                .get_mut(&pipe)
                .expect("adjacency exists")
                .in_label = Some(label);
            self.exchanges.opened(pipe);
            let opening = MplsMsg {
                label,
                address: our_addr,
                reply: false,
            };
            reaction
                .envelopes
                .push(opening.envelope(&self.me, peer, peer_pipe));
        }
        // Retry pending switch rules.
        let pending = std::mem::take(&mut self.pending_switches);
        for spec in pending {
            match self.try_apply_switch(ctx, &spec) {
                Some(n) => reaction.notifications.extend(n),
                None => self.pending_switches.push(spec),
            }
        }
        reaction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::{far, mangle, module, pipe, switch, Rig};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    impl crate::delivery::Exchanging for MplsModule {
        fn exchanges(&self) -> &Exchanges {
            &self.exchanges
        }
    }

    fn me() -> ModuleRef {
        module(ModuleKind::Mpls, 1, 1)
    }

    /// An adjacency pipe over the local ETH module towards the MPLS module
    /// of device `peer`.
    fn adjacency(id: u32, peer: Option<u64>, initiate: bool) -> PipeSpec {
        let mut spec = pipe(id, &me(), &module(ModuleKind::Eth, 2, 1));
        spec.peer_upper = peer.map(|d| module(ModuleKind::Mpls, 1, d));
        spec.peer_pipe = Some(far(id));
        spec.initiate = initiate;
        spec
    }

    /// The MPLS module of device `from` gives our adjacency `pipe` its
    /// `label`, replying to ours when `reply` is set.
    fn label_message(from: u64, pipe: u32, label: u32, reply: bool) -> ModuleEnvelope {
        let msg = MplsMsg {
            label,
            address: Ipv4Addr::new(10, 9, 0, from as u8),
            reply,
        };
        msg.envelope(&module(ModuleKind::Mpls, 1, from), me(), PipeId(pipe))
    }

    /// The adjacencies the exchange table says still owe their opening.
    fn owed(m: &MplsModule) -> Vec<PipeId> {
        m.exchanges.owed().map(|(pipe, ..)| pipe).collect()
    }

    /// The full scan of what the module was told: every adjacency created
    /// with a peer and `initiate`, that has not sent its opening yet.
    fn scan(created: &BTreeMap<PipeId, PipeSpec>, opened: &[PipeId]) -> Vec<PipeId> {
        (created.values())
            .filter(|spec| spec.lower != me() && spec.peer_upper.is_some() && spec.initiate)
            .map(|spec| spec.pipe)
            .filter(|pipe| !opened.contains(pipe))
            .collect()
    }

    #[test]
    fn a_completed_exchange_leaves_nothing_for_poll() {
        let mut rig = Rig::new();
        let mut m = MplsModule::new(me());
        m.create_pipe(&mut rig.ctx(), &adjacency(3, Some(2), true))
            .unwrap();
        rig.publish_port(3, 0);
        assert_eq!(m.poll(&mut rig.ctx()).envelopes.len(), 1);
        assert!(owed(&m).is_empty());
        m.handle_envelope(&mut rig.ctx(), &label_message(2, 3, 777, true))
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
    fn an_adjacency_waits_for_its_port_and_an_answered_one_never_initiates() {
        let mut rig = Rig::new();
        let mut m = MplsModule::new(me());
        m.create_pipe(&mut rig.ctx(), &adjacency(3, Some(2), true))
            .unwrap();
        assert!(m.poll(&mut rig.ctx()).is_empty(), "no port published yet");
        assert_eq!(owed(&m), [PipeId(3)]);
        rig.publish_port(3, 0);
        assert_eq!(m.poll(&mut rig.ctx()).envelopes.len(), 1);
        assert!(m.poll(&mut rig.ctx()).is_empty(), "the exchange opens once");

        // Device 5 initiates pipe 4: answering its opening is our half.
        m.create_pipe(&mut rig.ctx(), &adjacency(4, Some(5), false))
            .unwrap();
        assert!(owed(&m).is_empty(), "an answering adjacency owes nothing");
        let answer = m
            .handle_envelope(&mut rig.ctx(), &label_message(5, 4, 888, false))
            .unwrap();
        assert_eq!(answer.envelopes.len(), 1);
        assert!(MplsMsg::read(&answer.envelopes[0]).unwrap().reply);
        assert_eq!(m.adjacencies[&PipeId(4)].out_label, Some(888));
        rig.publish_port(4, 1);
        assert!(m.poll(&mut rig.ctx()).is_empty());
    }

    #[test]
    fn deleting_a_pipe_clears_every_index_and_a_recreated_pipe_initiates_again() {
        let mut rig = Rig::new();
        let mut m = MplsModule::new(me());
        for round in 0..2 {
            m.create_pipe(&mut rig.ctx(), &adjacency(3, Some(2), true))
                .unwrap();
            rig.publish_port(3, 0);
            assert_eq!(m.poll(&mut rig.ctx()).envelopes.len(), 1, "round {round}");
            m.delete(&mut rig.ctx(), &ComponentRef::Pipe(PipeId(3)))
                .unwrap();
            assert!(m.pipes.is_empty() && m.adjacencies.is_empty());
            assert!(m.exchanges.is_empty());
        }
    }

    /// Two goals' label exchanges with one peer over one link, in opposite
    /// directions: this side initiates pipe 3 and answers on pipe 4.  The
    /// peer's opening names pipe 4 and its reply pipe 3, and pipe 3's own
    /// opening still goes out, naming the peer's pipe.  Matching by pipe
    /// order alone gave pipe 3 the peer's opening, marked it sent and never
    /// opened pipe 3's exchange.
    #[test]
    fn an_exchange_lands_on_the_pipe_it_names() {
        let mut rig = Rig::new();
        let mut m = MplsModule::new(me());
        for (id, initiate) in [(3, true), (4, false)] {
            m.create_pipe(&mut rig.ctx(), &adjacency(id, Some(2), initiate))
                .unwrap();
            rig.publish_port(id, 0);
        }
        let out_labels = |m: &MplsModule| [3, 4].map(|id| m.adjacencies[&PipeId(id)].out_label);

        let answer = m
            .handle_envelope(&mut rig.ctx(), &label_message(2, 4, 777, false))
            .unwrap();
        assert_eq!(answer.envelopes.len(), 1, "the opening is answered");
        assert_eq!(answer.envelopes[0].pipe, far(4));
        assert_eq!(out_labels(&m), [None, Some(777)], "it lands on pipe 4");
        let opening = m.poll(&mut rig.ctx());
        assert_eq!(opening.envelopes.len(), 1, "pipe 3 still opens its own");
        assert!(!MplsMsg::read(&opening.envelopes[0]).unwrap().reply);
        assert_eq!(opening.envelopes[0].pipe, far(3));
        let none = m
            .handle_envelope(&mut rig.ctx(), &label_message(2, 3, 888, true))
            .unwrap();
        assert!(none.is_empty(), "a reply is not answered");
        assert_eq!(out_labels(&m), [Some(888), Some(777)], "it lands on pipe 3");
        assert!(m.exchanges.waiting().is_empty());
    }

    /// Hand `m` the message `env`; how many messages it answers with.
    fn answered(m: &mut MplsModule, rig: &mut Rig, env: ModuleEnvelope) -> usize {
        m.handle_envelope(&mut rig.ctx(), &env)
            .unwrap()
            .envelopes
            .len()
    }

    /// A duplicated opening arrives while a later goal's adjacency to the
    /// same peer still waits.  It names the adjacency it was for, which has
    /// its label, so it is not answered and the waiting adjacency takes no
    /// label; pairing by order gave it the stale one.  Once both have
    /// their labels, another copy changes nothing either: it used to fall
    /// back on the peer's lowest pipe, which took the copy's label for its
    /// own, and was answered twice.
    #[test]
    fn a_duplicated_opening_leaves_a_later_waiting_adjacency_alone() {
        let mut rig = Rig::new();
        let mut m = MplsModule::new(me());
        for id in [3, 4] {
            m.create_pipe(&mut rig.ctx(), &adjacency(id, Some(2), false))
                .unwrap();
            rig.publish_port(id, 0);
        }
        assert_eq!(
            answered(&mut m, &mut rig, label_message(2, 3, 100, false)),
            1
        );
        let again = answered(&mut m, &mut rig, label_message(2, 3, 100, false));
        assert_eq!(again, 0, "the duplicate is not answered");
        assert_eq!(m.adjacencies[&PipeId(4)].out_label, None);
        assert_eq!(m.exchanges.waiting(), BTreeSet::from([PipeId(4)]));
        assert_eq!(
            answered(&mut m, &mut rig, label_message(2, 4, 200, false)),
            1
        );
        let again = answered(&mut m, &mut rig, label_message(2, 4, 200, false));
        assert_eq!(again, 0, "a repeated opening is not answered");
        let out_labels = [3, 4].map(|id| m.adjacencies[&PipeId(id)].out_label);
        assert_eq!(out_labels, [Some(100), Some(200)]);
    }

    /// A duplicated reply arrives while a later goal's adjacency to the
    /// same peer still waits for its own: it pairs with nothing, and the
    /// later adjacency takes only its own label.
    #[test]
    fn a_duplicated_reply_leaves_a_later_waiting_adjacency_alone() {
        let mut rig = Rig::new();
        let mut m = MplsModule::new(me());
        for id in [3, 4] {
            m.create_pipe(&mut rig.ctx(), &adjacency(id, Some(2), true))
                .unwrap();
            rig.publish_port(id, 0);
        }
        assert_eq!(m.poll(&mut rig.ctx()).envelopes.len(), 2);
        for _ in 0..2 {
            answered(&mut m, &mut rig, label_message(2, 3, 100, true));
        }
        assert_eq!(m.adjacencies[&PipeId(4)].out_label, None);
        assert_eq!(m.exchanges.waiting(), BTreeSet::from([PipeId(4)]));
        answered(&mut m, &mut rig, label_message(2, 4, 200, true));
        let out_labels = [3, 4].map(|id| m.adjacencies[&PipeId(id)].out_label);
        assert_eq!(out_labels, [Some(100), Some(200)]);
        assert!(m.exchanges.waiting().is_empty());
    }

    /// The rule goes and so does the `attach` it published on the access
    /// pipe, which used to go on naming the removed push NHLFE.
    #[test]
    fn deleting_a_switch_rule_removes_it_from_show_actual() {
        let mut rig = Rig::new();
        let mut m = MplsModule::new(me());
        let access = pipe(1, &module(ModuleKind::Ip, 3, 1), &me());
        m.create_pipe(&mut rig.ctx(), &access).unwrap();
        m.create_pipe(&mut rig.ctx(), &adjacency(2, Some(2), true))
            .unwrap();
        rig.publish_port(2, 0);
        m.poll(&mut rig.ctx());
        m.handle_envelope(&mut rig.ctx(), &label_message(2, 2, 777, true))
            .unwrap();
        let rule = switch(&me(), 1, 2);
        let mut pushed = Vec::new();
        for round in 0..2 {
            m.create_switch(&mut rig.ctx(), &rule).unwrap();
            assert_eq!(
                m.actual(&rig.ctx()).switch_rules,
                [(PipeId(1), PipeId(2))],
                "listed by the ids `delete` takes"
            );
            assert_eq!(rig.config.mpls.nhlfe.len(), 2);
            let Some(RouteTarget::Mpls { nhlfe }) = rig.blackboard.pipe(PipeId(1)).attach else {
                panic!("round {round}: the access pipe names no push NHLFE");
            };
            assert!(rig.config.mpls.nhlfe_by_key(nhlfe).is_some());
            pushed.push(nhlfe);

            m.delete(
                &mut rig.ctx(),
                &ComponentRef::SwitchRule(me(), PipeId(1), PipeId(2)),
            )
            .unwrap();
            assert!(m.actual(&rig.ctx()).switch_rules.is_empty());
            assert!(rig.config.mpls.nhlfe.is_empty() && rig.config.mpls.xc.is_empty());
            assert!(m.installed.is_empty());
            assert_eq!(rig.blackboard.pipe(PipeId(1)).attach, None);
        }
        assert_ne!(pushed[0], pushed[1], "a re-created rule gets a fresh NHLFE");
    }

    proptest! {
        #[test]
        fn poll_opens_what_a_full_scan_owes(
            ops in proptest::collection::vec((0u8..6, 0u32..5, any::<u8>()), 0..48),
        ) {
            let mut rig = Rig::new();
            let mut m = MplsModule::new(me());
            let (mut created, mut opened) = (BTreeMap::new(), Vec::new());
            for (op, id, bits) in ops {
                let peer = 2 + u64::from(bits & 1);
                match op {
                    // The agent admits no create of a pipe id the device holds.
                    0 | 1 if m.pipes.contains_key(&PipeId(id)) => {}
                    0 | 1 => {
                        let spec = if bits >> 1 & 3 == 0 {
                            pipe(id, &module(ModuleKind::Ip, 3, 1), &me())
                        } else {
                            adjacency(id, (bits >> 3 & 3 != 0).then_some(peer), bits >> 5 & 1 == 1)
                        };
                        m.create_pipe(&mut rig.ctx(), &spec).unwrap();
                        created.insert(spec.pipe, spec);
                    }
                    2 => rig.publish_port(id, id),
                    3 => {
                        m.handle_envelope(&mut rig.ctx(), &label_message(peer, id, 500 + id, bits & 2 == 0))
                            .unwrap();
                    }
                    4 => {
                        m.delete(&mut rig.ctx(), &ComponentRef::Pipe(PipeId(id))).unwrap();
                        rig.blackboard.remove_pipe(PipeId(id));
                        created.remove(&PipeId(id));
                        opened.retain(|pipe| *pipe != PipeId(id));
                    }
                    _ => {
                        let due: Vec<PipeId> = scan(&created, &opened)
                            .into_iter()
                            .filter(|id| rig.blackboard.pipe(*id).port.is_some())
                            .collect();
                        let fired = m.poll(&mut rig.ctx());
                        let to: Vec<(ModuleRef, PipeId)> =
                            fired.envelopes.into_iter().map(|env| (env.to, env.pipe)).collect();
                        let peers: Vec<(ModuleRef, PipeId)> = (due.iter())
                            .map(|id| (created[id].peer_upper.unwrap(), far(id.0)))
                            .collect();
                        prop_assert_eq!(to, peers, "poll fires what the scan would, each to its far pipe");
                        opened.extend(due);
                    }
                }
                prop_assert_eq!(owed(&m), scan(&created, &opened));
            }
        }

        #[test]
        fn every_message_round_trips(
            label in 0u32..=Label::MAX,
            address in any::<u32>(),
            reply in any::<bool>(),
        ) {
            let msg = MplsMsg {
                label,
                address: Ipv4Addr::from(address),
                reply,
            };
            prop_assert_eq!(MplsMsg::decode(&msg.encode()), Some(msg));
        }

        #[test]
        fn a_mangled_body_is_refused_or_is_exactly_a_message(
            reply in any::<bool>(),
            how in any::<u8>(),
            at in any::<usize>(),
            byte in any::<u8>(),
        ) {
            // Pipe 3 waits for the peer's reply, pipe 4 for its opening.
            let mut rig = Rig::new();
            let mut m = MplsModule::new(me());
            for (id, initiate) in [(3, true), (4, false)] {
                m.create_pipe(&mut rig.ctx(), &adjacency(id, Some(2), initiate))
                    .unwrap();
                rig.publish_port(id, 0);
            }
            m.poll(&mut rig.ctx());
            let pipe = if reply { 3 } else { 4 };
            let mut env = label_message(2, pipe, 777, reply);
            env.body = mangle(&env.body, how, at, byte);
            rig.deliver::<MplsMsg>(&mut m, &env);
            let mut waiting = BTreeSet::from([PipeId(3), PipeId(4)]);
            if MplsMsg::decode(&env.body).is_some_and(|msg| msg.reply == reply) {
                waiting.remove(&PipeId(pipe));
            }
            prop_assert_eq!(m.exchanges.waiting(), waiting, "a message pairs with its pipe, a refusal with none");
        }
    }

    /// A label cut off used to be agreed as label 0, and one wider than 20
    /// bits was agreed too and panicked the switch rule that pushed it.
    /// Both are refused, the adjacency still waiting for its peer's label.
    #[test]
    fn a_missing_or_oversized_label_is_refused() {
        let mut rig = Rig::new();
        let mut m = MplsModule::new(me());
        m.create_pipe(&mut rig.ctx(), &adjacency(3, Some(2), false))
            .unwrap();
        // Tag, then the first of the label's two varint bytes.
        let mut cut = label_message(2, 3, 777, false);
        cut.body.truncate(2);
        let wide = label_message(2, 3, Label::MAX + 1, false);
        for env in [cut, wide] {
            let refused = m.handle_envelope(&mut rig.ctx(), &env);
            assert!(
                matches!(refused, Err(ModuleError::UndecodableBody { .. })),
                "{refused:?}"
            );
            assert_eq!(m.adjacencies[&PipeId(3)].out_label, None);
            assert_eq!(m.exchanges.waiting(), BTreeSet::from([PipeId(3)]));
        }
    }
}

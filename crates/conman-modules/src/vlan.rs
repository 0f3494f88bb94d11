//! The 802.1Q VLAN protocol module on provider switches (Figure 9).
//!
//! The VLAN identifier is agreed between adjacent VLAN modules through
//! `conveyMessage` (the NM never handles a VLAN id, nor sees one in
//! `showActual`), and the module then
//! writes the dot1q-tunnel / trunk port configuration into the simulated
//! switch — the CONMan equivalent of the CatOS script in Figure 9(a).

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
use netsim::config::{BridgeConfig, SwitchPortMode};
use netsim::stats::DropReason;
use netsim::vlan::VlanId;
use std::collections::BTreeMap;

/// What VLAN modules convey to each other: the VLAN a provider tunnel runs
/// on, passed switch to switch.  Tag 0, then the fields in order: the id as
/// a `u16` varint, the name as a length-prefixed string, the reply byte.
#[derive(Debug, Clone, PartialEq, Eq)]
struct VlanMsg {
    /// The VLAN id; a body naming one outside 1..=4094 does not decode.
    id: u16,
    /// The VLAN's name, declared with it on every switch.
    name: String,
    /// Whether this answers the peer's proposal rather than making one.
    reply: bool,
}

impl Dialect for VlanMsg {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        w.put_u8(0);
        w.put_u16(self.id);
        w.put_str(&self.name);
        w.put_bool(self.reply);
        w.finish()
    }

    fn decode(body: &[u8]) -> Option<Self> {
        let mut r = Reader::new(body);
        if r.u8()? != 0 {
            return None;
        }
        let msg = VlanMsg {
            id: VlanId::new(r.u16()?)?.value(),
            name: r.str()?.to_string(),
            reply: r.bool()?,
        };
        dialect::whole(&r, msg)
    }

    fn kind(&self) -> EnvelopeKind {
        EnvelopeKind::Convey
    }
}

/// Default VLAN id proposed by the edge module when the goal does not pin
/// one; 22 mirrors the paper's example.
const DEFAULT_VLAN: u16 = 22;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PipeKind {
    /// Customer-facing pipe (no peer at the far end of the provider network).
    Customer,
    /// Pipe towards an adjacent provider switch.
    Trunk,
}

/// What one applied switch rule wrote into the bridge: the record `delete`
/// undoes.
#[derive(Debug, Clone)]
struct InstalledRule {
    vid: u16,
    in_port: u32,
    out_port: u32,
}

/// A bridge port this module reconfigured: the mode it had before the first
/// rule touched it (`None`: unconfigured) and how many installed rules use
/// it.  The last of them to go puts the old mode back.
#[derive(Debug, Clone)]
struct PortClaim {
    replaced: Option<SwitchPortMode>,
    rules: usize,
}

/// The VLAN protocol module.
pub(crate) struct VlanModule {
    me: ModuleRef,
    pipes: BTreeMap<PipeId, PipeKind>,
    /// The VLAN exchange of every trunk: whom it is with, the far trunk its
    /// messages name, who opens it and how far it got.
    exchanges: Exchanges,
    vlan_id: Option<u16>,
    vlan_name: String,
    pending_switches: Vec<SwitchSpec>,
    /// Applied switch rules keyed by `(in_pipe, out_pipe)`: what
    /// `showActual` lists and `delete` removes.
    installed: BTreeMap<(PipeId, PipeId), InstalledRule>,
    claimed_ports: BTreeMap<u32, PortClaim>,
    /// Installed rules per VLAN id this module declared; the declaration
    /// goes with the last of them.
    declared: BTreeMap<u16, usize>,
    notified: bool,
}

impl VlanModule {
    /// Create a VLAN module.
    pub(crate) fn new(me: ModuleRef) -> Self {
        VlanModule {
            me,
            pipes: BTreeMap::new(),
            exchanges: Exchanges::default(),
            vlan_id: None,
            vlan_name: "C1".to_string(),
            pending_switches: Vec::new(),
            installed: BTreeMap::new(),
            claimed_ports: BTreeMap::new(),
            declared: BTreeMap::new(),
            notified: false,
        }
    }

    fn is_edge(&self) -> bool {
        self.pipes.values().any(|k| *k == PipeKind::Customer)
    }

    fn try_apply_switch(
        &mut self,
        ctx: &mut ModuleCtx,
        spec: &SwitchSpec,
    ) -> Option<Vec<Notification>> {
        let vid_raw = self.vlan_id?;
        let vid = VlanId::new(vid_raw)?;
        let in_kind = self.pipes.get(&spec.in_pipe).copied()?;
        let out_kind = self.pipes.get(&spec.out_pipe).copied()?;
        let in_port = ctx.blackboard.pipe(spec.in_pipe).port?;
        let out_port = ctx.blackboard.pipe(spec.out_pipe).port?;
        // Re-applying a rule replaces it.
        self.uninstall(ctx, (spec.in_pipe, spec.out_pipe));
        let bridge = ctx.config.bridge.get_or_insert_with(BridgeConfig::default);
        bridge.declare_vlan(vid, self.vlan_name.clone(), 1504);
        *self.declared.entry(vid_raw).or_default() += 1;
        for (kind, port) in [(in_kind, in_port), (out_kind, out_port)] {
            let mode = match kind {
                PipeKind::Customer => SwitchPortMode::Dot1qTunnel(vid),
                PipeKind::Trunk => SwitchPortMode::Trunk(vec![vid]),
            };
            let replaced = bridge.ports.insert(port, mode);
            self.claimed_ports
                .entry(port)
                .or_insert(PortClaim { replaced, rules: 0 })
                .rules += 1;
        }
        self.installed.insert(
            (spec.in_pipe, spec.out_pipe),
            InstalledRule {
                vid: vid_raw,
                in_port,
                out_port,
            },
        );
        let mut notifications = Vec::new();
        // The far-edge switch (an edge module that did not initiate the
        // trunk exchange) confirms the layer-2 tunnel to the NM.
        let egress = self.is_edge() && self.exchanges.answers_only();
        if egress && !self.notified {
            self.notified = true;
            notifications.push(Notification {
                from: self.me,
                body: Notice::Established,
            });
        }
        Some(notifications)
    }

    /// Undo what the applied rule `key` wrote into the bridge: each port no
    /// other installed rule uses gets the mode it had before, and the VLAN
    /// declaration goes with its last rule.
    fn uninstall(&mut self, ctx: &mut ModuleCtx, key: (PipeId, PipeId)) {
        let Some(rule) = self.installed.remove(&key) else {
            return;
        };
        let bridge = ctx.config.bridge.get_or_insert_with(BridgeConfig::default);
        for port in [rule.in_port, rule.out_port] {
            let claim = self.claimed_ports.get_mut(&port).expect("a rule's port");
            claim.rules -= 1;
            if claim.rules == 0 {
                match self.claimed_ports.remove(&port).and_then(|c| c.replaced) {
                    Some(mode) => bridge.set_port(port, mode),
                    None => drop(bridge.ports.remove(&port)),
                }
            }
        }
        let rules = self.declared.get_mut(&rule.vid).expect("a rule's VLAN");
        *rules -= 1;
        if *rules == 0 {
            self.declared.remove(&rule.vid);
            bridge.vlans.remove(&rule.vid);
        }
    }
}

impl ProtocolModule for VlanModule {
    fn reference(&self) -> ModuleRef {
        self.me
    }

    fn descriptor(&self) -> ModuleAbstraction {
        let mut a = ModuleAbstraction::empty(self.me);
        a.down_connectable = vec![ModuleKind::Eth];
        a.peerable = vec![ModuleKind::Vlan];
        a.switch.kinds = vec![SwitchKind::DownDown, SwitchKind::DownUp, SwitchKind::UpDown];
        // The module bridges the customer's frame between its ports without
        // reading a header of its own.
        a.switch.transparent_down_down = true;
        a.perf_reporting = vec!["frames tagged and untagged per VLAN".to_string()];
        a.fast_forwarding = true;
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
        // Tag filtering and Q-in-Q MTU violations.
        &[DropReason::Filtered, DropReason::MtuExceeded]
    }

    fn create_pipe(
        &mut self,
        _ctx: &mut ModuleCtx,
        spec: &PipeSpec,
    ) -> Result<ModuleReaction, ModuleError> {
        if spec.upper != self.me {
            return Ok(ModuleReaction::none());
        }
        if let Some(peer) = &spec.peer_upper {
            self.pipes.insert(spec.pipe, PipeKind::Trunk);
            if let Some(peer_pipe) = spec.peer_pipe {
                self.exchanges
                    .add(spec.pipe, peer, peer_pipe, spec.initiate);
            }
        } else {
            self.pipes.insert(spec.pipe, PipeKind::Customer);
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

    fn delete(
        &mut self,
        ctx: &mut ModuleCtx,
        component: &ComponentRef,
    ) -> Result<ModuleReaction, ModuleError> {
        match component {
            ComponentRef::SwitchRule(module, in_pipe, out_pipe) if *module == self.me => {
                self.uninstall(ctx, (*in_pipe, *out_pipe));
                self.pending_switches
                    .retain(|s| !(s.in_pipe == *in_pipe && s.out_pipe == *out_pipe));
            }
            ComponentRef::Pipe(pipe) => {
                self.pipes.remove(pipe);
                self.exchanges.remove(*pipe);
                self.pending_switches
                    .retain(|s| s.in_pipe != *pipe && s.out_pipe != *pipe);
                if self.pipes.is_empty() {
                    self.notified = false;
                    self.vlan_id = None;
                }
            }
            _ => {}
        }
        Ok(ModuleReaction::none())
    }

    fn handle_envelope(
        &mut self,
        _ctx: &mut ModuleCtx,
        env: &ModuleEnvelope,
    ) -> Result<ModuleReaction, ModuleError> {
        let VlanMsg { id, name, reply } = VlanMsg::read(env)?;
        // Only a message the trunk it names waits for is agreed: a proposal
        // for a trunk this side answers, a reply for one it proposed on,
        // which has nothing left to send.
        let Some(peer_pipe) = self.exchanges.pair(&env.from, env.pipe, !reply) else {
            return Ok(ModuleReaction::none());
        };
        self.vlan_id = Some(id);
        self.vlan_name = name;
        if reply {
            return Ok(ModuleReaction::none());
        }
        let answer = VlanMsg {
            id,
            name: self.vlan_name.clone(),
            reply: true,
        };
        Ok(ModuleReaction::envelope(
            answer.envelope(&self.me, env.from, peer_pipe),
        ))
    }

    fn poll(&mut self, ctx: &mut ModuleCtx) -> ModuleReaction {
        let mut reaction = ModuleReaction::none();
        // An edge module that initiates a trunk exchange picks the VLAN id
        // (no trunk has sent while the id is unknown, so an initiating trunk
        // still owes its proposal).
        if self.vlan_id.is_none() && self.exchanges.owed().next().is_some() && self.is_edge() {
            self.vlan_id = Some(DEFAULT_VLAN);
        }
        if let Some(vid) = self.vlan_id {
            // Every trunk that owes its proposal sends it.
            let owed: Vec<(PipeId, ModuleRef, PipeId)> = self.exchanges.owed().collect();
            for (pipe, peer, peer_pipe) in owed {
                let proposal = VlanMsg {
                    id: vid,
                    name: self.vlan_name.clone(),
                    reply: false,
                };
                reaction
                    .envelopes
                    .push(proposal.envelope(&self.me, peer, peer_pipe));
                self.exchanges.opened(pipe);
            }
        }
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

    impl crate::delivery::Exchanging for VlanModule {
        fn exchanges(&self) -> &Exchanges {
            &self.exchanges
        }
    }

    fn me() -> ModuleRef {
        module(ModuleKind::Vlan, 1, 1)
    }

    /// A trunk pipe towards the VLAN module of switch `peer`.
    fn trunk(id: u32, peer: u64, initiate: bool) -> PipeSpec {
        let mut spec = pipe(id, &me(), &module(ModuleKind::Eth, 2, 1));
        spec.peer_upper = Some(module(ModuleKind::Vlan, 1, peer));
        spec.peer_pipe = Some(far(id));
        spec.initiate = initiate;
        spec
    }

    fn customer(id: u32) -> PipeSpec {
        pipe(id, &me(), &module(ModuleKind::Eth, 3, 1))
    }

    /// The VLAN module of switch `from` proposes VLAN 22 for our trunk
    /// `pipe`, or replies to our proposal when `reply` is set.
    fn vlan_message(from: u64, pipe: u32, reply: bool) -> ModuleEnvelope {
        let msg = VlanMsg {
            id: 22,
            name: "C1".into(),
            reply,
        };
        msg.envelope(&module(ModuleKind::Vlan, 1, from), me(), PipeId(pipe))
    }

    /// The trunks the exchange table says still owe their proposal.
    fn owed(m: &VlanModule) -> Vec<PipeId> {
        m.exchanges.owed().map(|(pipe, ..)| pipe).collect()
    }

    /// The full scan of what the module was told: every trunk created with
    /// `initiate` that has not sent its proposal yet.
    fn scan(created: &BTreeMap<PipeId, PipeSpec>, opened: &[PipeId]) -> Vec<PipeId> {
        (created.values())
            .filter(|spec| spec.peer_upper.is_some() && spec.initiate)
            .map(|spec| spec.pipe)
            .filter(|pipe| !opened.contains(pipe))
            .collect()
    }

    #[test]
    fn a_completed_exchange_leaves_nothing_for_poll() {
        let mut rig = Rig::new();
        let mut m = VlanModule::new(me());
        m.create_pipe(&mut rig.ctx(), &customer(1)).unwrap();
        m.create_pipe(&mut rig.ctx(), &trunk(2, 2, true)).unwrap();
        assert_eq!(m.poll(&mut rig.ctx()).envelopes.len(), 1);
        assert!(owed(&m).is_empty());
        m.handle_envelope(&mut rig.ctx(), &vlan_message(2, 2, true))
            .unwrap();
        assert!(m.exchanges.waiting().is_empty());

        let (config, changes) = (rig.config_json(), rig.blackboard.changes());
        assert!(m.poll(&mut rig.ctx()).is_empty());
        assert_eq!(
            rig.config_json(),
            config,
            "an idle poll leaves the data plane alone"
        );
        assert_eq!(rig.blackboard.changes(), changes);
    }

    #[test]
    fn a_transit_trunk_waits_for_the_vlan_id_and_fires_once_it_is_known() {
        let mut rig = Rig::new();
        let mut m = VlanModule::new(me());
        m.create_pipe(&mut rig.ctx(), &trunk(1, 2, false)).unwrap();
        m.create_pipe(&mut rig.ctx(), &trunk(2, 3, true)).unwrap();
        assert!(m.poll(&mut rig.ctx()).is_empty(), "no VLAN id agreed yet");
        assert_eq!(owed(&m), [PipeId(2)]);
        let answer = m
            .handle_envelope(&mut rig.ctx(), &vlan_message(2, 1, false))
            .unwrap();
        assert_eq!(
            answer.envelopes.len(),
            1,
            "the upstream proposal is answered"
        );
        let onward = m.poll(&mut rig.ctx());
        assert_eq!(onward.envelopes.len(), 1);
        assert_eq!(onward.envelopes[0].to, module(ModuleKind::Vlan, 1, 3));
        assert_eq!(onward.envelopes[0].pipe, far(2));
        assert!(owed(&m).is_empty());
        assert!(m.poll(&mut rig.ctx()).is_empty(), "the exchange opens once");
    }

    #[test]
    fn deleting_a_trunk_clears_every_index_and_a_recreated_trunk_initiates_again() {
        let mut rig = Rig::new();
        let mut m = VlanModule::new(me());
        m.create_pipe(&mut rig.ctx(), &customer(1)).unwrap();
        for round in 0..2 {
            m.create_pipe(&mut rig.ctx(), &trunk(2, 2, true)).unwrap();
            assert_eq!(m.poll(&mut rig.ctx()).envelopes.len(), 1, "round {round}");
            m.delete(&mut rig.ctx(), &ComponentRef::Pipe(PipeId(2)))
                .unwrap();
            assert!(m.exchanges.is_empty());
            assert_eq!(m.pipes.len(), 1);
        }
    }

    /// Two goals' VLAN exchanges with one peer, in opposite directions: this
    /// side initiates trunk 2 and answers on trunk 3.  The peer's proposal
    /// names trunk 3 and is answered, and leaves trunk 2's own proposal
    /// pending, which `poll` then sends; the peer's reply names trunk 2 and
    /// is not answered.  Taking the peer's first trunk gave trunk 2 the
    /// proposal and marked its own as sent.
    #[test]
    fn an_exchange_lands_on_the_trunk_it_names() {
        let mut rig = Rig::new();
        let mut m = VlanModule::new(me());
        m.create_pipe(&mut rig.ctx(), &trunk(2, 2, true)).unwrap();
        m.create_pipe(&mut rig.ctx(), &trunk(3, 2, false)).unwrap();

        let answer = m
            .handle_envelope(&mut rig.ctx(), &vlan_message(2, 3, false))
            .unwrap();
        assert_eq!(answer.envelopes.len(), 1, "the proposal is answered");
        assert_eq!(answer.envelopes[0].pipe, far(3));
        assert!(VlanMsg::read(&answer.envelopes[0]).unwrap().reply);
        assert_eq!(owed(&m), [PipeId(2)], "trunk 2's proposal is not sent");
        let proposal = m.poll(&mut rig.ctx());
        assert_eq!(proposal.envelopes.len(), 1, "trunk 2 still proposes");
        assert!(!VlanMsg::read(&proposal.envelopes[0]).unwrap().reply);
        let none = m
            .handle_envelope(&mut rig.ctx(), &vlan_message(2, 2, true))
            .unwrap();
        assert!(none.is_empty(), "a reply is not answered");
        assert!(owed(&m).is_empty() && m.poll(&mut rig.ctx()).is_empty());
        assert!(m.exchanges.waiting().is_empty());
    }

    /// Hand `m` the message `env`; how many messages it answers with.
    fn answered(m: &mut VlanModule, rig: &mut Rig, env: ModuleEnvelope) -> usize {
        m.handle_envelope(&mut rig.ctx(), &env)
            .unwrap()
            .envelopes
            .len()
    }

    /// A duplicated proposal arrives while a later goal's trunk to the same
    /// switch still waits.  It names the trunk it was for, which has agreed,
    /// so it is not answered and the waiting trunk stays waiting for its
    /// own; pairing by order answered the duplicate on the waiting trunk.
    #[test]
    fn a_duplicated_proposal_leaves_a_later_waiting_trunk_alone() {
        let mut rig = Rig::new();
        let mut m = VlanModule::new(me());
        for id in [2, 3] {
            m.create_pipe(&mut rig.ctx(), &trunk(id, 2, false)).unwrap();
        }
        assert_eq!(answered(&mut m, &mut rig, vlan_message(2, 2, false)), 1);
        let again = answered(&mut m, &mut rig, vlan_message(2, 2, false));
        assert_eq!(again, 0, "the duplicate is not answered");
        assert_eq!(m.exchanges.waiting(), BTreeSet::from([PipeId(3)]));
        assert_eq!(answered(&mut m, &mut rig, vlan_message(2, 3, false)), 1);
        assert!(m.exchanges.waiting().is_empty());
    }

    /// A duplicated reply arrives while a later goal's trunk to the same
    /// switch still waits for its own: it pairs with nothing, and the later
    /// trunk waits until its own reply arrives.
    #[test]
    fn a_duplicated_reply_leaves_a_later_waiting_trunk_alone() {
        let mut rig = Rig::new();
        let mut m = VlanModule::new(me());
        m.create_pipe(&mut rig.ctx(), &customer(1)).unwrap();
        for id in [2, 3] {
            m.create_pipe(&mut rig.ctx(), &trunk(id, 2, true)).unwrap();
        }
        assert_eq!(m.poll(&mut rig.ctx()).envelopes.len(), 2);
        for _ in 0..2 {
            assert_eq!(answered(&mut m, &mut rig, vlan_message(2, 2, true)), 0);
            assert_eq!(m.exchanges.waiting(), BTreeSet::from([PipeId(3)]));
        }
        answered(&mut m, &mut rig, vlan_message(2, 3, true));
        assert!(m.exchanges.waiting().is_empty());
    }

    /// A proposal from a switch no trunk leads to is not agreed: it used to
    /// set the module's VLAN id before any trunk was looked at.
    #[test]
    fn a_strangers_proposal_changes_nothing() {
        let mut rig = Rig::new();
        let mut m = VlanModule::new(me());
        m.create_pipe(&mut rig.ctx(), &trunk(2, 2, false)).unwrap();
        let reaction = m
            .handle_envelope(&mut rig.ctx(), &vlan_message(7, 2, false))
            .unwrap();
        assert_eq!(m.vlan_id, None, "the stranger's VLAN id is not adopted");
        assert!(reaction.is_empty(), "the stranger is not answered");
        assert_eq!(m.exchanges.waiting(), BTreeSet::from([PipeId(2)]));
    }

    /// A switch as the testbeds build it: every port an access port of the
    /// default VLAN.
    fn fresh_switch() -> Rig {
        let mut rig = Rig::new();
        let default_vlan = VlanId::new(1).unwrap();
        let mut bridge = BridgeConfig::default();
        bridge.declare_vlan(default_vlan, "default", 1504);
        for port in 0..3 {
            bridge.set_port(port, SwitchPortMode::Access(default_vlan));
        }
        rig.config.bridge = Some(bridge);
        rig
    }

    #[test]
    fn deleting_a_switch_rule_restores_the_bridge_and_drops_its_show_actual_entry() {
        let mut rig = fresh_switch();
        let before = rig.config_json();
        let mut m = VlanModule::new(me());
        // Two goals share the customer port and the trunk port.
        for (customer_pipe, trunk_pipe) in [(1, 2), (3, 4)] {
            m.create_pipe(&mut rig.ctx(), &customer(customer_pipe))
                .unwrap();
            m.create_pipe(&mut rig.ctx(), &trunk(trunk_pipe, 2, true))
                .unwrap();
            rig.publish_port(customer_pipe, 0);
            rig.publish_port(trunk_pipe, 2);
            m.create_switch(&mut rig.ctx(), &switch(&me(), customer_pipe, trunk_pipe))
                .unwrap();
        }
        // The edge picks the VLAN id in `poll`, which applies both rules.
        m.poll(&mut rig.ctx());
        let (first, second) = ((PipeId(1), PipeId(2)), (PipeId(3), PipeId(4)));
        assert_eq!(m.actual(&rig.ctx()).switch_rules, [first, second]);
        assert!(m.installed.values().all(|r| r.vid == 22));
        let tunnel = rig.config_json();
        assert_ne!(tunnel, before, "the rules configured the bridge");

        // The first goal leaves: the ports it shares stay as the second
        // goal needs them.
        let rule = |i, o| ComponentRef::SwitchRule(me(), PipeId(i), PipeId(o));
        m.delete(&mut rig.ctx(), &rule(1, 2)).unwrap();
        assert_eq!(m.actual(&rig.ctx()).switch_rules, [second]);
        assert_eq!(rig.config_json(), tunnel);

        // A rule of another module, or one never applied, undoes nothing.
        let other = ComponentRef::SwitchRule(module(ModuleKind::Eth, 2, 1), PipeId(3), PipeId(4));
        m.delete(&mut rig.ctx(), &other).unwrap();
        m.delete(&mut rig.ctx(), &rule(1, 2)).unwrap();
        assert_eq!(rig.config_json(), tunnel);

        // The last rule takes the port modes and the VLAN declaration along.
        m.delete(&mut rig.ctx(), &rule(3, 4)).unwrap();
        assert!(m.actual(&rig.ctx()).switch_rules.is_empty());
        assert_eq!(rig.config_json(), before, "the bridge is as it was found");
        assert!(m.claimed_ports.is_empty() && m.declared.is_empty());

        for pipe in 1..=4 {
            m.delete(&mut rig.ctx(), &ComponentRef::Pipe(PipeId(pipe)))
                .unwrap();
        }
        assert_eq!(m.actual(&rig.ctx()), ModuleActual::default());
        assert_eq!(m.vlan_id, None, "the agreed id goes with the last pipe");
    }

    proptest! {
        #[test]
        fn poll_opens_what_a_full_scan_owes(
            ops in proptest::collection::vec((0u8..5, 0u32..5, any::<u8>()), 0..48),
        ) {
            let mut rig = Rig::new();
            let mut m = VlanModule::new(me());
            let (mut created, mut opened) = (BTreeMap::new(), Vec::new());
            for (op, id, bits) in ops {
                let peer = 2 + u64::from(bits & 1);
                match op {
                    // The agent admits no create of a pipe id the device holds.
                    0 | 1 if m.pipes.contains_key(&PipeId(id)) => {}
                    0 | 1 => {
                        let spec = if bits >> 1 & 3 == 0 {
                            customer(id)
                        } else {
                            trunk(id, peer, bits >> 3 & 1 == 1)
                        };
                        m.create_pipe(&mut rig.ctx(), &spec).unwrap();
                        created.insert(spec.pipe, spec);
                    }
                    2 => {
                        m.handle_envelope(&mut rig.ctx(), &vlan_message(peer, id, bits & 2 == 0))
                            .unwrap();
                    }
                    3 => {
                        m.delete(&mut rig.ctx(), &ComponentRef::Pipe(PipeId(id))).unwrap();
                        created.remove(&PipeId(id));
                        opened.retain(|pipe| *pipe != PipeId(id));
                    }
                    _ => {
                        let owing = scan(&created, &opened);
                        let id_known = m.vlan_id.is_some() || (m.is_edge() && !owing.is_empty());
                        let due: Vec<PipeId> = owing.into_iter().filter(|_| id_known).collect();
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
            id in 1u16..4095,
            name in proptest::collection::vec(0x20u32..0x3000, 0..8),
            reply in any::<bool>(),
        ) {
            let msg = VlanMsg {
                id,
                name: name.into_iter().filter_map(char::from_u32).collect(),
                reply,
            };
            prop_assert_eq!(VlanMsg::decode(&msg.encode()), Some(msg));
        }

        #[test]
        fn a_mangled_body_is_refused_or_is_exactly_a_message(
            reply in any::<bool>(),
            how in any::<u8>(),
            at in any::<usize>(),
            byte in any::<u8>(),
        ) {
            let mut rig = Rig::new();
            let mut m = VlanModule::new(me());
            m.create_pipe(&mut rig.ctx(), &customer(1)).unwrap();
            m.create_pipe(&mut rig.ctx(), &trunk(2, 2, false)).unwrap();
            rig.publish_port(1, 0);
            rig.publish_port(2, 1);
            m.create_switch(&mut rig.ctx(), &switch(&me(), 1, 2)).unwrap();
            let mut env = vlan_message(2, 2, reply);
            env.body = mangle(&env.body, how, at, byte);
            let vlan = m.vlan_id;
            rig.deliver::<VlanMsg>(&mut m, &env);
            if VlanMsg::decode(&env.body).is_none() {
                prop_assert_eq!(m.vlan_id, vlan);
            }
        }
    }

    /// A proposal whose name was cut off used to be agreed under the name
    /// "C1", and one naming VLAN 0 was agreed too and left its switch rules
    /// pending for good.  Both are refused and no VLAN is agreed.
    #[test]
    fn a_proposal_without_its_name_or_with_an_unusable_id_is_refused() {
        let mut rig = Rig::new();
        let mut m = VlanModule::new(me());
        m.create_pipe(&mut rig.ctx(), &trunk(2, 2, false)).unwrap();
        // Tag, id 22 and the name's length, then only the name's first byte.
        let mut cut = vlan_message(2, 2, false);
        cut.body.truncate(4);
        let mut zero = vlan_message(2, 2, false);
        zero.body[1] = 0;
        for env in [cut, zero] {
            let refused = m.handle_envelope(&mut rig.ctx(), &env);
            assert!(
                matches!(refused, Err(ModuleError::UndecodableBody { .. })),
                "{refused:?}"
            );
            assert_eq!(m.vlan_id, None);
        }
    }
}

//! The 802.1Q VLAN protocol module on provider switches (Figure 9).
//!
//! The VLAN identifier is agreed between adjacent VLAN modules through
//! `conveyMessage` (the NM never handles a VLAN id, nor sees one in
//! `showActual`), and the module then
//! writes the dot1q-tunnel / trunk port configuration into the simulated
//! switch — the CONMan equivalent of the CatOS script in Figure 9(a).

use crate::dialect::{self, Dialect};
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
use std::collections::{BTreeMap, BTreeSet};

/// What VLAN modules convey to each other: the VLAN a provider tunnel runs
/// on, passed switch to switch.  Tag 0, then the fields in order.
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

#[derive(Debug, Clone, Default)]
struct TrunkState {
    peer: Option<ModuleRef>,
    initiate: bool,
    sent: bool,
    agreed: bool,
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
    trunks: BTreeMap<PipeId, TrunkState>,
    /// Trunks whose VLAN exchange this module still has to start
    /// (`initiate` and `sent` unset).  `poll` visits these and nothing else.
    pending_trunks: BTreeSet<PipeId>,
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
            trunks: BTreeMap::new(),
            pending_trunks: BTreeSet::new(),
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
        let egress =
            self.is_edge() && self.trunks.values().all(|t| !t.initiate) && !self.trunks.is_empty();
        if egress && !self.notified {
            self.notified = true;
            notifications.push(Notification {
                from: self.me.clone(),
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
        self.me.clone()
    }

    fn descriptor(&self) -> ModuleAbstraction {
        let mut a = ModuleAbstraction::empty(self.me.clone());
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
        if spec.peer_upper.is_some() {
            self.pipes.insert(spec.pipe, PipeKind::Trunk);
            if spec.initiate {
                self.pending_trunks.insert(spec.pipe);
            }
            self.trunks.insert(
                spec.pipe,
                TrunkState {
                    peer: spec.peer_upper.clone(),
                    initiate: spec.initiate,
                    ..Default::default()
                },
            );
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
                self.trunks.remove(pipe);
                self.pending_trunks.remove(pipe);
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
        self.vlan_id = Some(id);
        self.vlan_name = name;
        let pipe = self
            .trunks
            .iter()
            .find(|(_, t)| t.peer.as_ref() == Some(&env.from))
            .map(|(p, _)| *p);
        if let Some(pipe) = pipe {
            let t = self.trunks.get_mut(&pipe).expect("trunk exists");
            t.agreed = true;
            if !reply {
                t.sent = true;
                self.pending_trunks.remove(&pipe);
                let answer = VlanMsg {
                    id,
                    name: self.vlan_name.clone(),
                    reply: true,
                };
                return Ok(ModuleReaction::envelope(
                    answer.envelope(&self.me, env.from.clone()),
                ));
            }
        }
        Ok(ModuleReaction::none())
    }

    fn poll(&mut self, ctx: &mut ModuleCtx) -> ModuleReaction {
        let mut reaction = ModuleReaction::none();
        // An edge module that initiates a trunk exchange picks the VLAN id
        // (no trunk has sent while the id is unknown, so an initiating trunk
        // is a pending one).
        if self.vlan_id.is_none() && !self.pending_trunks.is_empty() && self.is_edge() {
            self.vlan_id = Some(DEFAULT_VLAN);
        }
        if let Some(vid) = self.vlan_id {
            // Every pending trunk fires, in ascending pipe order.
            for pipe in std::mem::take(&mut self.pending_trunks) {
                let t = self.trunks.get_mut(&pipe).expect("trunk exists");
                t.sent = true;
                let proposal = VlanMsg {
                    id: vid,
                    name: self.vlan_name.clone(),
                    reply: false,
                };
                let peer = t.peer.clone().expect("a trunk has a peer");
                reaction.envelopes.push(proposal.envelope(&self.me, peer));
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
    use crate::rig::{mangle, module, pipe, switch, Rig};
    use proptest::prelude::*;

    fn me() -> ModuleRef {
        module(ModuleKind::Vlan, 1, 1)
    }

    /// A trunk pipe towards the VLAN module of switch `peer`.
    fn trunk(id: u32, peer: u64, initiate: bool) -> PipeSpec {
        let mut spec = pipe(id, &me(), &module(ModuleKind::Eth, 2, 1));
        spec.peer_upper = Some(module(ModuleKind::Vlan, 1, peer));
        spec.initiate = initiate;
        spec
    }

    fn customer(id: u32) -> PipeSpec {
        pipe(id, &me(), &module(ModuleKind::Eth, 3, 1))
    }

    fn vlan_message(from: u64, reply: bool) -> ModuleEnvelope {
        let msg = VlanMsg {
            id: 22,
            name: "C1".into(),
            reply,
        };
        msg.envelope(&module(ModuleKind::Vlan, 1, from), me())
    }

    /// The full scan `poll` used to run once the VLAN id is known: every
    /// trunk still owed the opening half of its exchange.
    fn scan(m: &VlanModule) -> BTreeSet<PipeId> {
        let mut owed = BTreeSet::new();
        for (pipe, t) in &m.trunks {
            if t.sent || !t.initiate {
                continue;
            }
            if t.peer.is_none() {
                continue;
            }
            owed.insert(*pipe);
        }
        owed
    }

    #[test]
    fn a_completed_exchange_leaves_nothing_for_poll() {
        let mut rig = Rig::new();
        let mut m = VlanModule::new(me());
        m.create_pipe(&mut rig.ctx(), &customer(1)).unwrap();
        m.create_pipe(&mut rig.ctx(), &trunk(2, 2, true)).unwrap();
        assert_eq!(m.poll(&mut rig.ctx()).envelopes.len(), 1);
        assert!(m.pending_trunks.is_empty());
        m.handle_envelope(&mut rig.ctx(), &vlan_message(2, true))
            .unwrap();

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
        assert_eq!(m.pending_trunks, BTreeSet::from([PipeId(2)]));
        let answer = m
            .handle_envelope(&mut rig.ctx(), &vlan_message(2, false))
            .unwrap();
        assert_eq!(
            answer.envelopes.len(),
            1,
            "the upstream proposal is answered"
        );
        let onward = m.poll(&mut rig.ctx());
        assert_eq!(onward.envelopes.len(), 1);
        assert_eq!(onward.envelopes[0].to, module(ModuleKind::Vlan, 1, 3));
        assert!(m.pending_trunks.is_empty());
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
            assert!(m.trunks.is_empty() && m.pending_trunks.is_empty());
            assert_eq!(m.pipes.len(), 1);
        }
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
        fn pending_trunks_equal_the_full_scan(
            ops in proptest::collection::vec((0u8..5, 0u32..5, any::<u8>()), 0..48),
        ) {
            let mut rig = Rig::new();
            let mut m = VlanModule::new(me());
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
                    }
                    2 => {
                        m.handle_envelope(&mut rig.ctx(), &vlan_message(peer, bits & 2 == 0))
                            .unwrap();
                    }
                    3 => {
                        m.delete(&mut rig.ctx(), &ComponentRef::Pipe(PipeId(id))).unwrap();
                    }
                    _ => {
                        let id_known = m.vlan_id.is_some()
                            || (m.is_edge() && m.trunks.values().any(|t| t.initiate));
                        let due: Vec<ModuleRef> = scan(&m)
                            .into_iter()
                            .filter(|_| id_known)
                            .map(|id| m.trunks[&id].peer.clone().unwrap())
                            .collect();
                        let fired = m.poll(&mut rig.ctx());
                        let to: Vec<ModuleRef> =
                            fired.envelopes.into_iter().map(|env| env.to).collect();
                        prop_assert_eq!(to, due, "poll fires what the scan would, in pipe order");
                    }
                }
                prop_assert_eq!(&m.pending_trunks, &scan(&m));
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
            let mut env = vlan_message(2, reply);
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
        let mut cut = vlan_message(2, false);
        cut.body.truncate(5);
        let mut zero = vlan_message(2, false);
        zero.body[1..3].copy_from_slice(&0u16.to_le_bytes());
        for env in [cut, zero] {
            let refused = m.handle_envelope(&mut rig.ctx(), &env);
            assert!(
                matches!(refused, Err(ModuleError::UndecodableBody { .. })),
                "{refused:?}"
            );
            assert_eq!(m.vlan_id, None);
            assert!(!m.trunks[&PipeId(2)].agreed);
        }
    }
}

//! The GRE protocol module (§III-B, Table III).
//!
//! The module keeps every GRE-specific detail — key values, sequence
//! numbers, checksums, the tunnel endpoints — away from the NM (`showActual`
//! lists the module's pipes and nothing else).  The NM only ever says
//! "create a pipe with in-order delivery and low error-rate"; the GRE module
//! negotiates keys and options with its peer GRE module through
//! `conveyMessage` and eventually writes the tunnel into the device
//! configuration (the equivalent of the `ip tunnel add ... ikey 1001 okey
//! 2001 icsum ocsum iseq oseq` line of Figure 7(a)).
//!
//! One module instance carries **multiple tunnels**, keyed by pipe: each
//! concurrent goal's path contributes its own up/down pipe pair, gets its
//! own negotiated key material (derived per pipe, so tunnels between the
//! same endpoints stay demultiplexable) and its own tunnel in the device
//! configuration.  Two goals can therefore share an edge GRE module the
//! same way they share IP and MPLS modules, instead of the second goal
//! failing its transaction.

use crate::dialect::{self, Dialect};
use conman_core::abstraction::{
    CounterSnapshot, Dependency, ModuleAbstraction, PerfTradeoff, PerformanceMetric, PipeCounters,
    SwitchKind,
};
use conman_core::ids::{ModuleKind, ModuleRef, PipeId};
use conman_core::module::{ModuleCtx, ModuleError, ModuleReaction, ProtocolModule};
use conman_core::primitives::{
    ComponentRef, EnvelopeKind, ModuleActual, ModuleEnvelope, PipeSpec, SwitchSpec, TradeoffChoice,
};
use mgmt_channel::codec::{Reader, Writer};
use netsim::config::TunnelConfig;
use netsim::route::RouteTarget;
use netsim::stats::DropReason;
use std::collections::{BTreeMap, BTreeSet};

/// What GRE modules convey to each other (`conveyMessage`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GreMsg {
    /// Tag 0, then `ikey` and `okey` (`u32` each) and the two option bytes:
    /// the tunnel parameters the *receiver* is to configure.  Its `ikey` is
    /// the key the proposer sends with and its `okey` the one the proposer
    /// accepts.
    Propose {
        ikey: u32,
        okey: u32,
        sequencing: bool,
        checksums: bool,
    },
    /// Tag 1: the proposal is agreed.
    Accept,
}

impl Dialect for GreMsg {
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::default();
        match *self {
            GreMsg::Propose {
                ikey,
                okey,
                sequencing,
                checksums,
            } => {
                w.put_u8(0);
                w.put_u32(ikey);
                w.put_u32(okey);
                w.put_bool(sequencing);
                w.put_bool(checksums);
            }
            GreMsg::Accept => w.put_u8(1),
        }
        w.finish()
    }

    fn decode(body: &[u8]) -> Option<Self> {
        let mut r = Reader::new(body);
        let msg = match r.u8()? {
            0 => GreMsg::Propose {
                ikey: r.u32()?,
                okey: r.u32()?,
                sequencing: r.bool()?,
                checksums: r.bool()?,
            },
            1 => GreMsg::Accept,
            _ => return None,
        };
        dialect::whole(&r, msg)
    }

    fn kind(&self) -> EnvelopeKind {
        EnvelopeKind::Convey
    }
}

/// Negotiated GRE parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct GreParams {
    ikey: u32,
    okey: u32,
    sequencing: bool,
    checksums: bool,
}

/// One tunnel's worth of state: the up/down pipe pair a goal's path
/// contributed, the negotiated parameters, and the configured tunnel id.
#[derive(Debug, Clone)]
struct TunnelSlot {
    /// The pipe to the payload protocol above (e.g. the customer IP module).
    up_pipe: Option<PipeId>,
    /// The pipe to the delivery protocol below (the ISP IP module).
    down_pipe: Option<PipeId>,
    peer: Option<ModuleRef>,
    /// Trade-offs requested by the NM when the up pipe was created.
    wants_sequencing: bool,
    wants_checksums: bool,
    params: Option<GreParams>,
    pending_switch: bool,
    configured_tunnel: Option<u32>,
}

impl TunnelSlot {
    fn new() -> Self {
        TunnelSlot {
            up_pipe: None,
            down_pipe: None,
            peer: None,
            wants_sequencing: false,
            wants_checksums: false,
            params: None,
            pending_switch: false,
            configured_tunnel: None,
        }
    }

    /// Armed by a switch rule and not configured yet: work for `poll`.
    fn awaits_tunnel(&self) -> bool {
        self.pending_switch && self.configured_tunnel.is_none()
    }
}

/// The GRE protocol module.
pub(crate) struct GreModule {
    me: ModuleRef,
    /// Tunnel slots keyed by creation number, so they iterate in creation
    /// order.  A goal's segment creates its up and down pipes together
    /// (segments commit whole, never interleaved with a sibling goal's), so
    /// "the slot still missing this side" is unambiguous while a slot is
    /// being assembled.
    slots: BTreeMap<u64, TunnelSlot>,
    next_slot: u64,
    /// The slot each up or down pipe belongs to.
    slot_of_pipe: BTreeMap<PipeId, u64>,
    /// Slots a switch rule armed that have no tunnel yet (still waiting for
    /// a side, the negotiated parameters or the endpoint addresses).  `poll`
    /// visits these and nothing else.
    armed: BTreeSet<u64>,
}

impl GreModule {
    /// Create a GRE module.
    pub(crate) fn new(me: ModuleRef) -> Self {
        GreModule {
            me,
            slots: BTreeMap::new(),
            next_slot: 0,
            slot_of_pipe: BTreeMap::new(),
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

    /// The slot `pipe` joins on the side `side` selects: the slot already
    /// holding it there (re-creation of a known pipe is idempotent),
    /// otherwise the oldest slot still missing that side (its other pipe
    /// arrived first), otherwise a new tunnel slot.
    fn slot_for(&mut self, pipe: PipeId, side: fn(&TunnelSlot) -> Option<PipeId>) -> u64 {
        let key = self
            .slot_of_pipe
            .get(&pipe)
            .copied()
            .filter(|key| side(&self.slots[key]) == Some(pipe))
            .or_else(|| {
                self.slots
                    .iter()
                    .find(|(_, slot)| side(slot).is_none())
                    .map(|(key, _)| *key)
            })
            .unwrap_or_else(|| {
                self.next_slot += 1;
                self.slots.insert(self.next_slot, TunnelSlot::new());
                self.next_slot
            });
        self.slot_of_pipe.insert(pipe, key);
        key
    }

    /// Arm a slot: its tunnel is configured as soon as it is complete.
    fn arm(&mut self, key: u64) {
        let slot = self.slots.get_mut(&key).expect("slot exists");
        slot.pending_switch = true;
        if slot.awaits_tunnel() {
            self.armed.insert(key);
        }
    }
}

impl ProtocolModule for GreModule {
    fn reference(&self) -> ModuleRef {
        self.me.clone()
    }

    fn descriptor(&self) -> ModuleAbstraction {
        // Table III.
        let mut a = ModuleAbstraction::empty(self.me.clone());
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
        // No rule is listed: `delete (switch)` changes nothing here, a
        // slot's tunnel goes with either of its pipes.
        ModuleActual {
            pipes: self.slot_of_pipe.keys().copied().collect(),
            ..Default::default()
        }
    }

    fn counters(&self, ctx: &ModuleCtx) -> CounterSnapshot {
        // Table III row x: packets received and transmitted per pipe.  Each
        // slot's up pipe carries decapsulated customer packets (tunnel rx)
        // and its down pipe the encapsulated ones (tunnel tx); totals sum
        // over every tunnel the module carries.
        let mut snap = CounterSnapshot::empty(self.me.clone());
        for slot in self.slots.values() {
            let Some(id) = slot.configured_tunnel else {
                continue;
            };
            let c = ctx.config.tunnel_counters(id).unwrap_or_default();
            if let Some(up) = slot.up_pipe {
                snap.pipes.insert(
                    format!("up:{up}"),
                    PipeCounters {
                        rx_packets: c.tx_packets, // handed down by the payload protocol
                        tx_packets: c.rx_packets, // handed up after decapsulation
                        drops: 0,
                    },
                );
            }
            if let Some(down) = slot.down_pipe {
                snap.pipes.insert(
                    format!("down:{down}"),
                    PipeCounters {
                        rx_packets: c.rx_packets,
                        tx_packets: c.tx_packets,
                        drops: c.drops,
                    },
                );
            }
            snap.totals.rx_packets += c.rx_packets;
            snap.totals.tx_packets += c.tx_packets;
            snap.totals.drops += c.drops;
        }
        // Key/sequencing/checksum mismatches are this module's fault domain.
        if let Some(n) = ctx.stats.drops.get(&DropReason::TunnelMismatch) {
            snap.drop_breakdown
                .insert(format!("{:?}", DropReason::TunnelMismatch), *n);
        }
        snap
    }

    fn delete(
        &mut self,
        ctx: &mut ModuleCtx,
        component: &ComponentRef,
    ) -> Result<ModuleReaction, ModuleError> {
        let ComponentRef::Pipe(pipe) = component else {
            return Ok(ModuleReaction::none());
        };
        let Some(key) = self.slot_of_pipe.remove(pipe) else {
            return Ok(ModuleReaction::none());
        };
        let slot = self.slots.get_mut(&key).expect("indexed slot exists");
        // Losing either pipe tears that slot's tunnel down, and with it the
        // attachment published on the up pipe; sibling goals' tunnels through
        // this module are untouched.
        if let Some(id) = slot.configured_tunnel.take() {
            ctx.config.remove_tunnel(id);
            if let Some(up) = slot.up_pipe {
                ctx.blackboard.publish(up, |facts| facts.attach = None);
            }
        }
        if slot.up_pipe == Some(*pipe) {
            slot.up_pipe = None;
        } else {
            slot.down_pipe = None;
        }
        slot.params = None;
        slot.pending_switch = false;
        self.armed.remove(&key);
        if slot.up_pipe.is_none() && slot.down_pipe.is_none() {
            self.slots.remove(&key);
        }
        Ok(ModuleReaction::none())
    }

    fn create_pipe(
        &mut self,
        _ctx: &mut ModuleCtx,
        spec: &PipeSpec,
    ) -> Result<ModuleReaction, ModuleError> {
        if spec.lower == self.me {
            // Our up pipe: the module above us is the payload protocol.
            if spec.tradeoffs.is_empty() {
                return Err(ModuleError::MissingTradeoffs);
            }
            let key = self.slot_for(spec.pipe, |slot| slot.up_pipe);
            let slot = self.slots.get_mut(&key).expect("slot exists");
            slot.up_pipe = Some(spec.pipe);
            slot.peer = spec.peer_lower.clone();
            slot.wants_sequencing = spec.tradeoffs.contains(&TradeoffChoice::InOrderDelivery);
            slot.wants_checksums = spec.tradeoffs.contains(&TradeoffChoice::LowErrorRate);
            if spec.initiate {
                if let Some(peer) = slot.peer.clone() {
                    let (ikey, okey) = self.propose_keys(&peer, spec.pipe);
                    let slot = self.slots.get_mut(&key).expect("slot exists");
                    let (sequencing, checksums) = (slot.wants_sequencing, slot.wants_checksums);
                    slot.params = Some(GreParams {
                        ikey,
                        okey,
                        sequencing,
                        checksums,
                    });
                    // The peer's view: it accepts what we send and sends
                    // what we accept.
                    let proposal = GreMsg::Propose {
                        ikey: okey,
                        okey: ikey,
                        sequencing,
                        checksums,
                    };
                    return Ok(ModuleReaction::envelope(proposal.envelope(&self.me, peer)));
                }
            }
        } else if spec.upper == self.me {
            // Our down pipe: the delivery protocol below us.
            let key = self.slot_for(spec.pipe, |slot| slot.down_pipe);
            self.slots.get_mut(&key).expect("slot exists").down_pipe = Some(spec.pipe);
        }
        Ok(ModuleReaction::none())
    }

    fn create_switch(
        &mut self,
        _ctx: &mut ModuleCtx,
        spec: &SwitchSpec,
    ) -> Result<ModuleReaction, ModuleError> {
        // Arm the slot the switch's pipes belong to; a rule naming none of
        // this module's pipes arms nothing.
        for pipe in [spec.in_pipe, spec.out_pipe] {
            if let Some(key) = self.slot_of_pipe.get(&pipe).copied() {
                self.arm(key);
            }
        }
        Ok(ModuleReaction::none())
    }

    fn handle_envelope(
        &mut self,
        _ctx: &mut ModuleCtx,
        env: &ModuleEnvelope,
    ) -> Result<ModuleReaction, ModuleError> {
        let GreMsg::Propose {
            ikey,
            okey,
            sequencing,
            checksums,
        } = GreMsg::read(env)?
        else {
            // An acceptance: nothing further to do, the proposal already
            // holds our parameters.
            return Ok(ModuleReaction::none());
        };
        // Match the proposal to the oldest slot still negotiating with this
        // peer.  Both ends commit their goals in the same order (batch
        // segment order is global to the pass), so oldest-first pairs the
        // k-th proposal with the k-th slot.
        let Some(slot) = self
            .slots
            .values_mut()
            .find(|s| s.params.is_none() && s.peer.as_ref().is_none_or(|peer| *peer == env.from))
        else {
            // No slot is waiting on a proposal (e.g. a stale retransmit
            // after teardown): acknowledge without state.
            return Ok(ModuleReaction::none());
        };
        slot.params = Some(GreParams {
            ikey,
            okey,
            sequencing,
            checksums,
        });
        slot.wants_sequencing = sequencing;
        slot.wants_checksums = checksums;
        slot.peer.get_or_insert_with(|| env.from.clone());
        Ok(ModuleReaction::envelope(
            GreMsg::Accept.envelope(&self.me, env.from.clone()),
        ))
    }

    fn poll(&mut self, ctx: &mut ModuleCtx) -> ModuleReaction {
        // Armed slots, oldest first; one that is still incomplete stays armed.
        let mut configured = Vec::new();
        for &key in &self.armed {
            let slot = self.slots.get_mut(&key).expect("armed slot exists");
            let (Some(up), Some(down), Some(params)) = (slot.up_pipe, slot.down_pipe, slot.params)
            else {
                continue;
            };
            let endpoints = ctx.blackboard.pipe(down);
            let (Some(local), Some(remote)) = (endpoints.local_addr, endpoints.remote_addr) else {
                continue;
            };
            let mut t = TunnelConfig::gre(format!("gre-{}-{}", up, down), local, remote);
            t.ikey = Some(params.ikey);
            t.okey = Some(params.okey);
            t.iseq = params.sequencing;
            t.oseq = params.sequencing;
            t.icsum = params.checksums;
            t.ocsum = params.checksums;
            let id = ctx.config.add_tunnel(t);
            ctx.blackboard.publish(up, |facts| {
                facts.attach = Some(RouteTarget::Tunnel { tunnel: id })
            });
            slot.configured_tunnel = Some(id);
            configured.push(key);
        }
        for key in configured {
            self.armed.remove(&key);
        }
        ModuleReaction::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::{mangle, module, pipe, switch, Rig};
    use proptest::prelude::*;
    use std::net::Ipv4Addr;

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

    fn proposal() -> ModuleEnvelope {
        GreMsg::Propose {
            ikey: 2,
            okey: 1,
            sequencing: true,
            checksums: false,
        }
        .envelope(&peer(), me())
    }

    /// The full scan `poll` used to run: every slot a switch rule armed
    /// that has no tunnel yet, whether or not it is complete.
    fn scan(m: &GreModule) -> BTreeSet<u64> {
        let mut waiting = BTreeSet::new();
        for (key, slot) in &m.slots {
            if slot.configured_tunnel.is_some() || !slot.pending_switch {
                continue;
            }
            waiting.insert(*key);
        }
        waiting
    }

    /// The pipe index rebuilt from the slots themselves.
    fn pipes_by_slot(m: &GreModule) -> BTreeMap<PipeId, u64> {
        m.slots
            .iter()
            .flat_map(|(key, slot)| {
                [slot.up_pipe, slot.down_pipe]
                    .into_iter()
                    .flatten()
                    .map(|pipe| (pipe, *key))
            })
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
    fn an_armed_slot_waits_for_the_endpoint_addresses() {
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

    /// A rule arms the slot its pipes belong to and no other, so a rule
    /// naming none of this module's pipes arms nothing.
    #[test]
    fn a_rule_naming_unknown_pipes_arms_no_slot() {
        let mut rig = Rig::new();
        let mut m = GreModule::new(me());
        m.create_pipe(&mut rig.ctx(), &up(1, true)).unwrap();
        m.create_pipe(&mut rig.ctx(), &down(2)).unwrap();
        publish_endpoints(&mut rig, 2);
        m.create_switch(&mut rig.ctx(), &switch(&me(), 7, 8))
            .unwrap();
        assert!(m.armed.is_empty());
        assert!(m.slots.values().all(|slot| !slot.pending_switch));
        m.poll(&mut rig.ctx());
        assert!(rig.config.tunnels().next().is_none());
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
            assert_eq!(m.slot_of_pipe.keys().collect::<Vec<_>>(), [&PipeId(2)]);
            m.delete(&mut rig.ctx(), &ComponentRef::Pipe(PipeId(2)))
                .unwrap();
            assert!(m.slots.is_empty() && m.slot_of_pipe.is_empty() && m.armed.is_empty());
        }
    }

    /// `attach` names the tunnel, so it goes where the tunnel goes: it used
    /// to outlive it on the surviving up pipe, while tunnel ids are reused.
    #[test]
    fn losing_the_down_pipe_retracts_the_attachment_and_a_new_tunnel_publishes_a_fresh_one() {
        let mut rig = Rig::new();
        let baseline = rig.config_json();
        let mut m = GreModule::new(me());
        m.create_pipe(&mut rig.ctx(), &up(1, true)).unwrap();
        let attach = |rig: &Rig| rig.blackboard.pipe(PipeId(1)).attach;
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
            assert_eq!(rig.config_json(), baseline);
            // The surviving up pipe negotiates afresh.
            m.handle_envelope(&mut rig.ctx(), &proposal()).unwrap();
        }
    }

    proptest! {
        #[test]
        fn armed_slots_equal_the_full_scan_and_the_pipe_index_matches_the_slots(
            ops in proptest::collection::vec((0u8..7, 0u32..3, any::<u8>()), 0..48),
        ) {
            let mut rig = Rig::new();
            let mut m = GreModule::new(me());
            // Up pipes are 0..3, down pipes 10..13.
            for (op, id, bits) in ops {
                match op {
                    0 => drop(m.create_pipe(&mut rig.ctx(), &up(id, bits & 1 == 1)).unwrap()),
                    1 => drop(m.create_pipe(&mut rig.ctx(), &down(10 + id)).unwrap()),
                    2 => {
                        let rule = switch(&me(), id, 10 + u32::from(bits % 3));
                        m.create_switch(&mut rig.ctx(), &rule).unwrap();
                    }
                    3 => drop(m.handle_envelope(&mut rig.ctx(), &proposal()).unwrap()),
                    4 => publish_endpoints(&mut rig, 10 + id),
                    5 => {
                        let pipe = PipeId(if bits & 1 == 0 { id } else { 10 + id });
                        m.delete(&mut rig.ctx(), &ComponentRef::Pipe(pipe)).unwrap();
                        rig.blackboard.remove_pipe(pipe);
                    }
                    _ => {
                        let due = scan(&m)
                            .into_iter()
                            .filter(|key| {
                                let slot = &m.slots[key];
                                slot.up_pipe.is_some()
                                    && slot.params.is_some()
                                    && slot.down_pipe.is_some_and(|down| {
                                        rig.blackboard.pipe(down).remote_addr.is_some()
                                    })
                            })
                            .count();
                        let before = rig.config.tunnels().count();
                        m.poll(&mut rig.ctx());
                        prop_assert_eq!(rig.config.tunnels().count() - before, due);
                    }
                }
                prop_assert_eq!(&m.armed, &scan(&m));
                prop_assert_eq!(&m.slot_of_pipe, &pipes_by_slot(&m));
            }
        }

        #[test]
        fn every_message_round_trips(
            propose in any::<bool>(),
            keys in (any::<u32>(), any::<u32>()),
            options in (any::<bool>(), any::<bool>()),
        ) {
            let msg = if propose {
                GreMsg::Propose {
                    ikey: keys.0,
                    okey: keys.1,
                    sequencing: options.0,
                    checksums: options.1,
                }
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
            let mut rig = Rig::new();
            let mut m = GreModule::new(me());
            m.create_pipe(&mut rig.ctx(), &up(1, false)).unwrap();
            m.create_pipe(&mut rig.ctx(), &down(2)).unwrap();
            let mut env = if propose {
                proposal()
            } else {
                GreMsg::Accept.envelope(&peer(), me())
            };
            env.body = mangle(&env.body, how, at, byte);
            rig.deliver::<GreMsg>(&mut m, &env);
        }
    }

    /// A proposal cut off after its tag used to agree on key 0 for both
    /// directions; it is refused and the slot keeps waiting for its keys.
    #[test]
    fn a_proposal_without_its_keys_is_refused() {
        let mut rig = Rig::new();
        let mut m = GreModule::new(me());
        m.create_pipe(&mut rig.ctx(), &up(1, false)).unwrap();
        let mut env = proposal();
        env.body.truncate(1);
        let refused = m.handle_envelope(&mut rig.ctx(), &env);
        assert!(
            matches!(refused, Err(ModuleError::UndecodableBody { .. })),
            "{refused:?}"
        );
        assert!(m.slots.values().all(|slot| slot.params.is_none()));
        let agreed = m.handle_envelope(&mut rig.ctx(), &proposal()).unwrap();
        assert_eq!(agreed.envelopes[0].body, GreMsg::Accept.encode());
        let params = m.slots.values().find_map(|slot| slot.params);
        assert_eq!(params.map(|p| (p.ikey, p.okey)), Some((2, 1)));
    }
}

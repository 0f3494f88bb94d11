//! The Ethernet (ETH) protocol module.
//!
//! An ETH module is bound to one or more physical ports.  Its main job in
//! the management plane is to advertise its physical pipes and, when a pipe
//! to an upper module is created, to tell the other modules on the device
//! (via the blackboard) which port underlies that pipe — the equivalent of
//! `dev eth2` showing up in the Linux commands of Figure 7(a).
//!
//! It holds only what `showActual` and `delete` read: the ids of its pipes
//! (not the modules at their other ends), its switch rules by creation
//! number, and one ordered set of `(pipe, rule)` pairs that finds the
//! rules naming a pipe by a range read.

use conman_core::abstraction::{ModuleAbstraction, PhysicalPipeInfo, SwitchKind};
use conman_core::ids::{ModuleKind, ModuleRef, PipeId};
use conman_core::module::{ModuleCtx, ModuleError, ModuleReaction, ProtocolModule};
use conman_core::primitives::{ComponentRef, ModuleActual, PipeSpec, SwitchSpec};
use netsim::device::PortId;
use netsim::stats::DropReason;
use std::collections::{BTreeMap, BTreeSet};

/// The ETH protocol module.
pub(crate) struct EthModule {
    me: ModuleRef,
    /// Ports this module is bound to (routers: one; a plain layer-2 switch
    /// models all its ports as one ETH module with `[phy => phy]` switching).
    ports: Vec<PortId>,
    /// Module kinds that may sit above this ETH module.
    up_kinds: Vec<ModuleKind>,
    /// Can this module switch frames between its physical pipes?
    phy_switching: bool,
    /// Pipes this module is an end of.
    pipes: BTreeSet<PipeId>,
    /// Switch rules `(in, out)` keyed by creation number, so `showActual`
    /// lists them in creation order.
    switch_rules: BTreeMap<u64, (PipeId, PipeId)>,
    next_rule: u64,
    /// `(pipe, rule)` for each pipe a rule names on either side, by the
    /// rule's creation number: deleting a pipe or a rule touches those
    /// rules only.
    rules_of_pipe: BTreeSet<(PipeId, u64)>,
}

impl EthModule {
    /// An ETH module on a router or host, bound to a single port.
    pub(crate) fn new(me: ModuleRef, port: PortId, up_kinds: Vec<ModuleKind>) -> Self {
        EthModule {
            me,
            ports: vec![port],
            up_kinds,
            phy_switching: false,
            pipes: BTreeSet::new(),
            switch_rules: BTreeMap::new(),
            next_rule: 0,
            rules_of_pipe: BTreeSet::new(),
        }
    }

    /// An ETH module modelling a plain layer-2 switch: all ports, with
    /// `[phy => phy]` switching and nothing above it.
    pub(crate) fn layer2_switch(me: ModuleRef, ports: Vec<PortId>) -> Self {
        EthModule {
            me,
            ports,
            up_kinds: Vec::new(),
            phy_switching: true,
            pipes: BTreeSet::new(),
            switch_rules: BTreeMap::new(),
            next_rule: 0,
            rules_of_pipe: BTreeSet::new(),
        }
    }

    /// The primary port of this module.
    pub(crate) fn port(&self) -> PortId {
        self.ports[0]
    }

    /// The creation numbers of the rules naming `pipe`, ascending.
    fn rules_naming(&self, pipe: PipeId) -> impl Iterator<Item = u64> + '_ {
        (self.rules_of_pipe.range((pipe, 0)..=(pipe, u64::MAX))).map(|&(_, rule)| rule)
    }

    /// Forget the listed rules and their entries in the per-pipe index.
    fn forget_rules(&mut self, rules: &[u64]) {
        for rule in rules {
            let Some((in_pipe, out_pipe)) = self.switch_rules.remove(rule) else {
                continue;
            };
            self.rules_of_pipe.remove(&(in_pipe, *rule));
            self.rules_of_pipe.remove(&(out_pipe, *rule));
        }
    }
}

impl ProtocolModule for EthModule {
    fn reference(&self) -> ModuleRef {
        self.me.clone()
    }

    fn descriptor(&self) -> ModuleAbstraction {
        let mut a = ModuleAbstraction::empty(self.me.clone());
        a.up_connectable = self.up_kinds.clone();
        a.peerable = vec![ModuleKind::Eth];
        a.switch.kinds = vec![SwitchKind::PhyUp, SwitchKind::UpPhy];
        if self.phy_switching {
            a.switch.kinds.push(SwitchKind::PhyPhy);
        }
        if self.up_kinds.is_empty() && !self.phy_switching {
            a.switch.kinds.clear();
        }
        for p in &self.ports {
            a.physical_pipes.push(PhysicalPipeInfo {
                port: *p,
                link: None,
                broadcast: false,
            });
        }
        a.perf_reporting = vec!["frames received and transmitted per physical pipe".to_string()];
        a
    }

    fn actual(&self, _ctx: &ModuleCtx) -> ModuleActual {
        ModuleActual {
            pipes: self.pipes.iter().copied().collect(),
            switch_rules: self.switch_rules.values().copied().collect(),
            filters: Vec::new(),
        }
    }

    fn fault_domain(&self) -> &'static [DropReason] {
        &[
            DropReason::PortDown,
            DropReason::NotForUs,
            DropReason::Malformed,
        ]
    }

    fn create_pipe(
        &mut self,
        ctx: &mut ModuleCtx,
        spec: &PipeSpec,
    ) -> Result<ModuleReaction, ModuleError> {
        // The ETH module is always the lower end of an up-down pipe.  It
        // publishes the underlying port so the modules above can translate
        // abstract pipes into concrete interfaces.
        if spec.lower == self.me {
            ctx.blackboard
                .publish(spec.pipe, |facts| facts.port = Some(self.port().0));
        }
        self.pipes.insert(spec.pipe);
        Ok(ModuleReaction::none())
    }

    fn create_switch(
        &mut self,
        _ctx: &mut ModuleCtx,
        spec: &SwitchSpec,
    ) -> Result<ModuleReaction, ModuleError> {
        // Switching between an up pipe and a physical pipe needs no extra
        // data-plane state in the simulator (transmission on the port is
        // already wired up); record it for showActual.
        self.switch_rules
            .insert(self.next_rule, (spec.in_pipe, spec.out_pipe));
        for pipe in [spec.in_pipe, spec.out_pipe] {
            self.rules_of_pipe.insert((pipe, self.next_rule));
        }
        self.next_rule += 1;
        Ok(ModuleReaction::none())
    }

    fn delete(
        &mut self,
        _ctx: &mut ModuleCtx,
        component: &ComponentRef,
    ) -> Result<ModuleReaction, ModuleError> {
        // Forget the pipe / rule so `showActual` reflects a clean teardown
        // (transactional rollback asserts on this).
        match component {
            ComponentRef::Pipe(pipe) => {
                self.pipes.remove(pipe);
                let named: Vec<u64> = self.rules_naming(*pipe).collect();
                self.forget_rules(&named);
            }
            ComponentRef::SwitchRule(module, in_pipe, out_pipe) if *module == self.me => {
                let rule = (*in_pipe, *out_pipe);
                let named: Vec<u64> = (self.rules_naming(*in_pipe))
                    .filter(|r| self.switch_rules[r] == rule)
                    .collect();
                self.forget_rules(&named);
            }
            _ => {}
        }
        Ok(ModuleReaction::none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::{module, pipe, switch, Rig};
    use proptest::prelude::*;

    #[test]
    fn publishes_port_on_pipe_creation() {
        let me = module(ModuleKind::Eth, 1, 1);
        let mut m = EthModule::new(me.clone(), PortId(2), vec![ModuleKind::Ip]);
        let mut rig = Rig::new();
        let spec = pipe(3, &module(ModuleKind::Ip, 2, 1), &me);
        m.create_pipe(&mut rig.ctx(), &spec).unwrap();
        assert_eq!(rig.blackboard.pipe(PipeId(3)).port, Some(2));
    }

    #[test]
    fn descriptor_shapes() {
        let me = module(ModuleKind::Eth, 1, 1);
        let router_eth = EthModule::new(
            me.clone(),
            PortId(0),
            vec![ModuleKind::Ip, ModuleKind::Mpls],
        );
        let d = router_eth.descriptor();
        assert!(d.can_switch(SwitchKind::PhyUp));
        assert!(!d.can_switch(SwitchKind::PhyPhy));
        assert!(d.can_connect_up(&ModuleKind::Mpls));

        let sw = EthModule::layer2_switch(me, vec![PortId(0), PortId(1)]);
        let d = sw.descriptor();
        assert!(d.can_switch(SwitchKind::PhyPhy));
        assert_eq!(d.physical_pipes.len(), 2);
    }

    #[test]
    fn deleting_a_pipe_forgets_the_rules_naming_it_on_either_side() {
        let me = module(ModuleKind::Eth, 1, 1);
        let mut m = EthModule::new(me.clone(), PortId(0), vec![ModuleKind::Ip]);
        let mut rig = Rig::new();
        for (in_pipe, out_pipe) in [(1, 2), (2, 1), (1, 12), (3, 4)] {
            m.create_switch(&mut rig.ctx(), &switch(&me, in_pipe, out_pipe))
                .unwrap();
        }
        m.delete(&mut rig.ctx(), &ComponentRef::Pipe(PipeId(2)))
            .unwrap();
        assert_eq!(
            m.actual(&rig.ctx()).switch_rules,
            [(PipeId(1), PipeId(12)), (PipeId(3), PipeId(4))],
            "P12 is not P2"
        );
        m.delete(
            &mut rig.ctx(),
            &ComponentRef::SwitchRule(me, PipeId(3), PipeId(4)),
        )
        .unwrap();
        m.delete(&mut rig.ctx(), &ComponentRef::Pipe(PipeId(12)))
            .unwrap();
        assert!(m.switch_rules.is_empty() && m.rules_of_pipe.is_empty());
    }

    proptest! {
        /// The keyed tables list exactly what a plain `Vec` of pairs would,
        /// rules in creation order.
        #[test]
        fn show_actual_matches_a_model_of_pairs(
            ops in proptest::collection::vec((0u8..5, 0u32..4, 0u32..4), 0..48),
        ) {
            let me = module(ModuleKind::Eth, 1, 1);
            let mut m = EthModule::new(me.clone(), PortId(0), vec![ModuleKind::Ip]);
            let mut rig = Rig::new();
            let mut pipes: Vec<PipeId> = Vec::new();
            let mut rules: Vec<(PipeId, PipeId)> = Vec::new();
            for (op, a, b) in ops {
                let (a, b) = (PipeId(1 + 10 * a), PipeId(1 + 10 * b));
                match op {
                    0 => {
                        m.create_pipe(&mut rig.ctx(), &pipe(a.0, &module(ModuleKind::Ip, 2, 1), &me))
                            .unwrap();
                        pipes.push(a);
                    }
                    1 | 2 => {
                        m.create_switch(&mut rig.ctx(), &switch(&me, a.0, b.0)).unwrap();
                        rules.push((a, b));
                    }
                    3 => {
                        m.delete(&mut rig.ctx(), &ComponentRef::Pipe(a)).unwrap();
                        pipes.retain(|p| *p != a);
                        rules.retain(|(i, o)| *i != a && *o != a);
                    }
                    _ => {
                        m.delete(&mut rig.ctx(), &ComponentRef::SwitchRule(me.clone(), a, b))
                            .unwrap();
                        rules.retain(|r| *r != (a, b));
                    }
                }
                let actual = m.actual(&rig.ctx());
                prop_assert_eq!(&actual.switch_rules, &rules);
                pipes.sort_unstable();
                pipes.dedup();
                prop_assert_eq!(&actual.pipes, &pipes);
                let indexed = m.rules_of_pipe.len();
                let sides: usize = m
                    .switch_rules
                    .values()
                    .map(|(i, o)| if i == o { 1 } else { 2 })
                    .sum();
                prop_assert_eq!(indexed, sides, "the per-pipe index holds live rules only");
            }
        }
    }
}

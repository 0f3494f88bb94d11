//! The NM's checks, in its own types.  A batch of dry-run [`Plan`]s is
//! checked against the [`GoalStore`] that numbered and classified them,
//! without reading the `Network`: `reconcile()` asserts `check_batch` once
//! per pass under `debug_assertions`, so every test run verifies every batch
//! the runtime plans, and [`ManagedNetwork::verify_plans`] is the explicit
//! entry point.  [`ManagedNetwork::audit`] checks what the devices list in
//! `showActual` (Table I) against what the applied plans claim.

use super::ManagedNetwork;
use crate::nm::{script, Exclusion, GoalId, GoalStore, ModulePath, Plan};
use crate::primitives::ComponentRef;
use mgmt_channel::ManagementChannel;
use netsim::device::DeviceId;
use std::collections::{BTreeMap, BTreeSet};

/// An invariant a planned batch or the devices break (the last four variants
/// are [`ManagedNetwork::audit`]'s).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanViolation {
    /// Two goals' pipe-id blocks overlap: their derived identifiers (route
    /// tables, policy priorities) would collide on shared devices.
    PipeOverlap {
        /// The pair's goal listed first in the batch.
        a: GoalId,
        /// The pair's goal listed second.
        b: GoalId,
    },
    /// A goal's pipe block reaches [`GoalStore::MAX_PIPE_ID`]: the u32
    /// spaces derived from pipe ids would wrap.
    PipeSpaceExceeded {
        /// The goal whose block is out of budget.
        goal: GoalId,
        /// The last pipe id the block would use.
        last_pipe: u32,
    },
    /// A plan's path enters a module or crosses a link its own goal
    /// excluded: the path finder routed through what diagnosis blamed.
    ExclusionCrossed {
        /// The goal whose exclusion is crossed.
        goal: GoalId,
        /// The exclusion, as the goal records it.
        exclusion: Exclusion,
    },
    /// The plan's created/reused module split is no longer what the
    /// store's module → goal index says: executing it would take or share
    /// module references on a stale premise.
    StaleModuleClaims {
        /// The goal whose plan is stale.
        goal: GoalId,
    },
    /// `device` holds `component` and no applied plan claims it: a module
    /// lists it, or the agent's blackboard keeps facts for the pipe.
    OrphanDeviceState {
        /// The device.
        device: DeviceId,
        /// The component, by the name `delete` takes.
        component: ComponentRef,
    },
    /// An applied plan claims `component` and `device` does not list it.
    MissingDeviceState {
        /// The device.
        device: DeviceId,
        /// The component, by the name `delete` takes.
        component: ComponentRef,
    },
    /// The agent still holds a staged segment, never committed or aborted.
    StagedResidue {
        /// The device.
        device: DeviceId,
    },
    /// The device did not answer `showActual`: nothing of it was checked.
    DeviceSilent {
        /// The device.
        device: DeviceId,
    },
}

/// Does `path` enter the excluded module, or cross the excluded link in
/// either direction?
fn crosses(path: &ModulePath, exclusion: &Exclusion) -> bool {
    match exclusion {
        Exclusion::Module(m) => path.steps.iter().any(|step| step.module == *m),
        Exclusion::Link(..) => path
            .steps
            .windows(2)
            .any(|w| Exclusion::link(w[0].module.device, w[1].module.device) == *exclusion),
    }
}

/// Pipe blocks within budget and pairwise disjoint, and no plan crossing
/// its own goal's exclusions.
pub(crate) fn check_batch<'a>(
    goals: &GoalStore,
    plans: impl IntoIterator<Item = &'a Plan>,
) -> Vec<PlanViolation> {
    let mut out = Vec::new();
    let mut blocks: Vec<(GoalId, u64, u64)> = Vec::new();
    for plan in plans {
        let slots = script::slot_count(&plan.path);
        if GoalStore::check_block(plan.pipe_base, slots).is_err() {
            out.push(PlanViolation::PipeSpaceExceeded {
                goal: plan.goal,
                last_pipe: plan.pipe_base.saturating_add(slots - 1),
            });
        }
        if slots > 0 {
            let base = u64::from(plan.pipe_base);
            blocks.push((plan.goal, base, base + u64::from(slots)));
        }
        if let Some(rec) = goals.get(plan.goal) {
            out.extend(
                rec.excluded
                    .iter()
                    .filter(|e| crosses(&plan.path, e))
                    .map(|e| PlanViolation::ExclusionCrossed {
                        goal: plan.goal,
                        exclusion: e.clone(),
                    }),
            );
        }
    }
    for (i, &(a, lo_a, hi_a)) in blocks.iter().enumerate() {
        for &(b, lo_b, hi_b) in &blocks[i + 1..] {
            if lo_a < hi_b && lo_b < hi_a {
                out.push(PlanViolation::PipeOverlap { a, b });
            }
        }
    }
    out
}

/// [`check_batch`], plus every plan whose module claims the store would no
/// longer make.
fn check_plans(goals: &GoalStore, plans: &[Plan]) -> Vec<PlanViolation> {
    let mut out = check_batch(goals, plans);
    out.extend(
        plans
            .iter()
            .filter(|plan| {
                let (created, reused) = goals.classify_modules(plan.goal, &plan.path);
                created != plan.modules_created || reused != plan.modules_reused
            })
            .map(|plan| PlanViolation::StaleModuleClaims { goal: plan.goal }),
    );
    out
}

impl<C: ManagementChannel> ManagedNetwork<C> {
    /// Check a set of dry-run plans against the current goal store: pipe
    /// blocks within budget and disjoint, no plan crossing its goal's
    /// exclusions, and every plan's created/reused split still what
    /// classifying its path now yields.  Empty means safe to execute.
    ///
    /// Pipe-block disjointness is checked on the plans as given: plans
    /// produced by successive [`Self::plan_goal`] calls share the peeked
    /// base until a block is consumed (`GoalStore::take_pipe_block`), the
    /// way the batched reconcile pass numbers them.
    pub fn verify_plans(&self, plans: &[Plan]) -> Vec<PlanViolation> {
        check_plans(&self.goals, plans)
    }

    /// Ask every managed device what it holds (one `showActual` round) and
    /// compare with the store's applied plans: a component held and not
    /// claimed, one claimed and not listed, a staged segment left behind and
    /// a silent device are each a violation, in device order.  The one
    /// definition of device residue; nothing in the runtime calls it.
    pub fn audit(&mut self) -> Vec<PlanViolation> {
        use PlanViolation as V;
        let mut claimed: BTreeMap<DeviceId, BTreeSet<ComponentRef>> = BTreeMap::new();
        let applied = self.goals.iter().filter_map(|goal| goal.applied());
        for (device, component) in applied.flat_map(|a| a.scripts.components()) {
            claimed.entry(device).or_default().insert(component);
        }
        let devices: Vec<DeviceId> = self.agents.keys().copied().collect();
        let mut answers = self.show_actual(&devices);
        let mut out = Vec::new();
        for device in devices {
            let Some(modules) = answers.remove(&device) else {
                out.push(V::DeviceSilent { device });
                continue;
            };
            let claims = claimed.remove(&device).unwrap_or_default();
            let listed: BTreeSet<_> = modules.iter().flat_map(|(m, a)| a.components(m)).collect();
            let agent = &self.agents[&device];
            let facts = agent.blackboard().pipes().map(ComponentRef::Pipe);
            let held: BTreeSet<_> = listed.iter().cloned().chain(facts).collect();
            let orphan = |component| V::OrphanDeviceState { device, component };
            out.extend(held.difference(&claims).cloned().map(orphan));
            let missing = |component| V::MissingDeviceState { device, component };
            out.extend(claims.difference(&listed).cloned().map(missing));
            if agent.staged_segment_count(self.net.device(device).expect("it answered")) > 0 {
                out.push(V::StagedResidue { device });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::SwitchKind;
    use crate::ids::{ModuleId, ModuleKind, ModuleRef};
    use crate::nm::goal::AppliedPlan;
    use crate::nm::pathfinder::{Entry, PathStep};
    use crate::nm::{ConnectivityGoal, ScriptSet, StagedScripts};
    use std::collections::BTreeSet;

    fn ip(device: u64, id: u32) -> ModuleRef {
        ModuleRef::new(ModuleKind::Ip, ModuleId(id), DeviceId::from_raw(device))
    }

    fn path_over(modules: &[(u64, u32)]) -> ModulePath {
        ModulePath {
            steps: modules
                .iter()
                .map(|&(d, m)| PathStep {
                    module: ip(d, m),
                    switch: SwitchKind::DownUp,
                    entered: Entry::Below,
                    header: 0,
                    depth: 1,
                })
                .collect(),
        }
    }

    /// A plan for `path` in the block at `pipe_base`, classified the way
    /// `plan_for_path` classifies it.
    fn plan(store: &GoalStore, goal: GoalId, path: ModulePath, pipe_base: u32) -> Plan {
        let (modules_created, modules_reused) = store.classify_modules(goal, &path);
        Plan {
            goal,
            path,
            scripts: ScriptSet::default(),
            pipe_base,
            modules_created,
            modules_reused,
        }
    }

    fn two_goals() -> (GoalStore, GoalId, GoalId) {
        let mut store = GoalStore::new();
        let goal = || ConnectivityGoal::vpn(ip(1, 9), ip(3, 9));
        let a = store.submit(goal());
        let b = store.submit(goal());
        (store, a, b)
    }

    /// Devices 1 → 2 → 3, one step each: four pipe slots.
    fn chain() -> ModulePath {
        path_over(&[(1, 1), (2, 1), (3, 1)])
    }

    #[test]
    fn a_clean_two_goal_batch_has_no_violation() {
        let (store, a, b) = two_goals();
        let plans = [plan(&store, a, chain(), 0), plan(&store, b, chain(), 4)];
        let found = check_plans(&store, &plans);
        assert!(found.is_empty(), "{found:?}");
    }

    #[test]
    fn overlapping_blocks_are_a_pipe_overlap() {
        let (store, a, b) = two_goals();
        let plans = [plan(&store, a, chain(), 0), plan(&store, b, chain(), 3)];
        let found = check_plans(&store, &plans);
        assert!(
            matches!(found[..], [PlanViolation::PipeOverlap { a: x, b: y }] if x == a && y == b),
            "{found:?}"
        );
    }

    #[test]
    fn a_block_reaching_the_cap_is_pipe_space_exceeded() {
        let (store, a, _) = two_goals();
        // Four slots ending at MAX − 1 are in budget; one id later is not.
        let last_in_budget = GoalStore::MAX_PIPE_ID - 4;
        let fits = [plan(&store, a, chain(), last_in_budget)];
        assert!(check_plans(&store, &fits).is_empty());
        let over = [plan(&store, a, chain(), last_in_budget + 1)];
        let found = check_plans(&store, &over);
        assert!(
            matches!(
                found[..],
                [PlanViolation::PipeSpaceExceeded { goal, last_pipe }]
                    if goal == a && last_pipe == GoalStore::MAX_PIPE_ID
            ),
            "{found:?}"
        );
    }

    #[test]
    fn a_path_through_an_excluded_module_crosses_it() {
        let (mut store, a, _) = two_goals();
        let blamed = Exclusion::Module(ip(2, 1));
        store.mark_degraded(a, BTreeSet::from([blamed.clone()]));
        let found = check_plans(&store, &[plan(&store, a, chain(), 0)]);
        assert!(
            matches!(
                &found[..],
                [PlanViolation::ExclusionCrossed { goal, exclusion }]
                    if *goal == a && *exclusion == blamed
            ),
            "{found:?}"
        );
    }

    #[test]
    fn a_path_across_an_excluded_link_crosses_it_whichever_way_it_was_named() {
        let (mut store, a, _) = two_goals();
        // The path crosses 2 → 3; the exclusion names the link 3 -- 2.
        let (d2, d3) = (DeviceId::from_raw(2), DeviceId::from_raw(3));
        store.mark_degraded(a, BTreeSet::from([Exclusion::link(d3, d2)]));
        let found = check_plans(&store, &[plan(&store, a, chain(), 0)]);
        assert!(
            matches!(
                &found[..],
                [PlanViolation::ExclusionCrossed { goal, exclusion: Exclusion::Link(x, y) }]
                    if *goal == a && (*x, *y) == (d2, d3)
            ),
            "{found:?}"
        );
    }

    #[test]
    fn a_plan_classified_before_another_goal_applied_its_module_is_stale() {
        let (mut store, a, b) = two_goals();
        // B plans to be the first user of (4, 7)...
        let lone = path_over(&[(4, 7)]);
        let plan_b = plan(&store, b, lone.clone(), 0);
        assert_eq!(plan_b.modules_created, [ip(4, 7)]);
        // ...then A's applied plan takes it first.
        store.set_applied(
            a,
            Some(AppliedPlan {
                path: lone,
                scripts: StagedScripts::from(&ScriptSet::default()),
                pipe_base: 2,
            }),
        );
        let found = check_plans(&store, &[plan_b]);
        assert!(
            matches!(found[..], [PlanViolation::StaleModuleClaims { goal }] if goal == b),
            "{found:?}"
        );
    }

    /// Publishes facts for every pipe it is an end of and lists none: what
    /// it leaves behind shows only on the agent's blackboard.
    struct Unlisted(ModuleRef);

    impl crate::module::ProtocolModule for Unlisted {
        fn reference(&self) -> ModuleRef {
            self.0
        }
        fn descriptor(&self) -> crate::abstraction::ModuleAbstraction {
            crate::abstraction::ModuleAbstraction::empty(self.0)
        }
        fn create_pipe(
            &mut self,
            ctx: &mut crate::module::ModuleCtx,
            spec: &crate::primitives::PipeSpec,
        ) -> Result<crate::module::ModuleReaction, crate::module::ModuleError> {
            ctx.blackboard
                .publish(spec.pipe, |facts| facts.port = Some(0));
            Ok(crate::module::ModuleReaction::none())
        }
    }

    /// One router whose agent has one [`Unlisted`] module, managed from
    /// itself.
    fn one_router() -> (
        ManagedNetwork<mgmt_channel::OutOfBandChannel>,
        DeviceId,
        ModuleRef,
    ) {
        use crate::agent::ManagementAgent;
        use netsim::device::{Device, DeviceRole};
        use netsim::network::Network;

        let mut net = Network::new();
        let d = net.add_device(Device::new("R", DeviceRole::Router, 1));
        let m = ModuleRef::new(ModuleKind::Ip, ModuleId(1), d);
        let mut agent = ManagementAgent::new(d, "R");
        agent.register(Box::new(Unlisted(m)));
        let mut mn = ManagedNetwork::new(net, d, mgmt_channel::OutOfBandChannel::new());
        mn.add_agent(agent);
        (mn, d, m)
    }

    #[test]
    fn blackboard_facts_for_an_unclaimed_pipe_are_orphan_state() {
        use crate::ids::PipeId;
        use crate::nm::script::DeviceScript;
        use crate::primitives::{PipeSpec, Primitive};

        let (mut mn, d, m) = one_router();
        let pipe = PipeSpec {
            pipe: PipeId(7),
            upper: m,
            lower: m,
            peer_upper: None,
            peer_lower: None,
            peer_pipe: None,
            tradeoffs: vec![],
            initiate: false,
        };
        let scripts = ScriptSet {
            scripts: vec![DeviceScript {
                device: d,
                primitives: vec![Primitive::CreatePipe(pipe)],
            }],
        };
        // Run behind the store's back: no goal claims pipe 7.
        assert!(mn.run_batch(&[(GoalId(1), &scripts)]).failed.is_empty());
        let component = ComponentRef::Pipe(PipeId(7));
        let orphan = PlanViolation::OrphanDeviceState {
            device: d,
            component,
        };
        assert_eq!(mn.audit(), [orphan]);
    }

    /// A segment staged on a running agent and never committed or aborted
    /// is staged residue (the runtime always settles what it stages, so
    /// this one is staged by hand).
    #[test]
    fn a_stage_never_settled_is_staged_residue() {
        use crate::primitives::{Primitive, ScriptSegment, WireMessage};

        let (mut mn, d, _) = one_router();
        let segment = ScriptSegment {
            goal: 1,
            primitives: vec![Primitive::ShowActual],
        };
        let stage = WireMessage::StageBatch {
            txn: 1,
            segments: vec![segment],
        };
        let device = mn.net.device_mut(d).expect("the router");
        mn.agents
            .get_mut(&d)
            .expect("its agent")
            .handle(device, &stage);
        assert_eq!(mn.audit(), [PlanViolation::StagedResidue { device: d }]);
    }
}

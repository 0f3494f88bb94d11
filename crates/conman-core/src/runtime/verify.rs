//! The plan checks, in the plan's own types: what a batch of dry-run
//! [`Plan`]s must hold before it touches a device, checked against the
//! [`GoalStore`] that numbered and classified them.  Nothing here reads the
//! `Network`; the checks run on what the NM already knows.
//!
//! `reconcile()` asserts `check_batch` once per pass under
//! `debug_assertions`, so every test run doubles as a verification run of
//! every batch the runtime plans; [`ManagedNetwork::verify_plans`] is the
//! explicit entry point.

use super::ManagedNetwork;
use crate::nm::{script, Exclusion, GoalId, GoalStore, ModulePath, Plan};
use mgmt_channel::ManagementChannel;

/// An invariant a planned batch breaks.
#[derive(Debug)]
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abstraction::SwitchKind;
    use crate::ids::{ModuleId, ModuleKind, ModuleRef};
    use crate::nm::goal::AppliedPlan;
    use crate::nm::pathfinder::{Entry, PathStep};
    use crate::nm::{ConnectivityGoal, ScriptSet};
    use netsim::device::DeviceId;
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
                scripts: ScriptSet::default(),
                pipe_base: 2,
            }),
        );
        let found = check_plans(&store, &[plan_b]);
        assert!(
            matches!(found[..], [PlanViolation::StaleModuleClaims { goal }] if goal == b),
            "{found:?}"
        );
    }
}

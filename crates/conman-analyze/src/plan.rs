//! The pre-flight plan/batch verifier.
//!
//! Input is a **neutral model** of a planned batch — raw integer goal and
//! device ids, display-string module keys, explicit pipe blocks — so the
//! pass has no dependency on the management layers that produce plans.
//! `conman-core` builds [`BatchModel`]s from its `GoalStore` + `Plan`s
//! (see `ManagedNetwork::verify_plans`) and asserts the verdict under
//! `debug_assertions`; tests hand-build broken models to prove each
//! [`Violation`] variant fires.
//!
//! The checks mirror what the runtime otherwise discovers dynamically:
//!
//! * pipe-id blocks pairwise disjoint and below the derived-identifier cap
//!   ([`check_pipes`]),
//! * every script mirrored by an exact reverse-order teardown
//!   ([`check_teardowns`]),
//! * per-device commit order satisfiable across the batch — the
//!   opposite-direction-paths conflict the batch executor demotes to a
//!   strict transaction (`check_commit_order`),
//! * created/reused module claims consistent with the module → goal index
//!   (`check_refcounts`),
//! * no plan crossing its own goal's excluded modules or links
//!   ([`check_exclusions`]).

use crate::violation::Violation;
use std::collections::{BTreeMap, BTreeSet};

/// One device's create/delete footprint within a goal's script.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeviceOps {
    /// The device the script segment configures.
    pub device: u64,
    /// Keys of the components the configure script creates, in script
    /// order.
    pub creates: Vec<String>,
    /// Keys of the components the teardown script deletes on this device,
    /// in teardown-script order.
    pub deletes: Vec<String>,
}

/// The neutral model of one goal's plan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GoalModel {
    /// The goal (`GoalId.0`).
    pub goal: u64,
    /// First pipe id of the plan's reserved block.
    pub pipe_base: u32,
    /// Number of pipe ids the block spans (`script::slot_count`).
    pub pipe_slots: u32,
    /// Per-device scripts in configure order (the order the batch
    /// executor's commit-sequence constraint applies to).
    pub scripts: Vec<DeviceOps>,
    /// Device order of the teardown script (must be the reverse of
    /// `scripts`' device order).
    pub teardown_devices: Vec<u64>,
    /// Module keys the plan's path traverses (deduplicated).
    pub path_modules: BTreeSet<String>,
    /// Physical links the path crosses, smaller device id first.
    pub path_links: BTreeSet<(u64, u64)>,
    /// Module keys the goal's diagnosis excluded.
    pub excluded_modules: BTreeSet<String>,
    /// Links the goal's diagnosis excluded, smaller device id first.
    pub excluded_links: BTreeSet<(u64, u64)>,
    /// Module keys the plan claims it will create (first use).
    pub modules_created: BTreeSet<String>,
    /// Module keys the plan claims it will reuse (already applied by
    /// another goal).
    pub modules_reused: BTreeSet<String>,
}

/// The neutral model of an assembled batch: every goal's plan plus the
/// store-level context the checks need.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchModel {
    /// Largest pipe id the allocator may hand out
    /// (`GoalStore::MAX_PIPE_ID`).
    pub max_pipe_id: u32,
    /// One model per planned goal.
    pub goals: Vec<GoalModel>,
    /// The module → goal index at classification time: which goals'
    /// *applied* plans traverse each module.
    pub module_users: BTreeMap<String, BTreeSet<u64>>,
}

/// Run every plan/batch check; empty means the batch is safe to execute.
pub fn verify_batch(batch: &BatchModel) -> Vec<Violation> {
    let mut out = check_pipes(batch);
    out.extend(check_teardowns(batch));
    out.extend(check_commit_order(batch));
    out.extend(check_refcounts(batch));
    out.extend(check_exclusions(batch));
    out
}

/// Pipe-id accounting: every block below the cap, all blocks pairwise
/// disjoint.
pub fn check_pipes(batch: &BatchModel) -> Vec<Violation> {
    let mut out = Vec::new();
    let blocks: Vec<(u64, u64, u64)> = batch
        .goals
        .iter()
        .filter(|g| g.pipe_slots > 0)
        .map(|g| {
            (
                g.goal,
                g.pipe_base as u64,
                g.pipe_base as u64 + g.pipe_slots as u64,
            )
        })
        .collect();
    for &(goal, _lo, hi) in &blocks {
        if hi > batch.max_pipe_id as u64 {
            out.push(Violation::PipeSpaceExceeded {
                goal,
                last_pipe: (hi - 1).min(u32::MAX as u64) as u32,
                max: batch.max_pipe_id,
            });
        }
    }
    for (i, &(goal_a, lo_a, hi_a)) in blocks.iter().enumerate() {
        for &(goal_b, lo_b, hi_b) in &blocks[i + 1..] {
            if lo_a < hi_b && lo_b < hi_a {
                out.push(Violation::PipeOverlap { goal_a, goal_b });
            }
        }
    }
    out
}

/// Teardown mirroring: per device, the deletes must undo the creates in
/// exact reverse order, and the teardown must visit devices in reverse
/// script order.
pub fn check_teardowns(batch: &BatchModel) -> Vec<Violation> {
    let mut out = Vec::new();
    for g in &batch.goals {
        let forward: Vec<u64> = g.scripts.iter().map(|d| d.device).collect();
        let mut reversed = forward.clone();
        reversed.reverse();
        if g.teardown_devices != reversed {
            out.push(Violation::TeardownMismatch {
                goal: g.goal,
                device: 0,
                detail: format!(
                    "teardown visits devices {:?}, expected reverse script order {:?}",
                    g.teardown_devices, reversed
                ),
            });
        }
        for d in &g.scripts {
            let mirrored: Vec<&String> = d.creates.iter().rev().collect();
            let deletes: Vec<&String> = d.deletes.iter().collect();
            if mirrored != deletes {
                let missing = d
                    .creates
                    .iter()
                    .find(|c| !d.deletes.contains(c))
                    .cloned()
                    .unwrap_or_else(|| "(order)".into());
                out.push(Violation::TeardownMismatch {
                    goal: g.goal,
                    device: d.device,
                    detail: format!(
                        "creates are not mirrored in reverse (first divergence near {missing})"
                    ),
                });
            }
        }
    }
    out
}

/// Commit-order satisfiability: replays the batch executor's fixed-point
/// partition.  Each pass derives one commit order over the batch's devices
/// (descending maximum script position, ties by device id) and evicts every
/// goal whose script would have a later device commit *before* an earlier
/// one; evicted goals are reported as advisory
/// [`Violation::CommitOrderConflict`]s, exactly the goals the executor
/// would demote to strict per-goal transactions.
pub(crate) fn check_commit_order(batch: &BatchModel) -> Vec<Violation> {
    let mut batchable: Vec<&GoalModel> = batch.goals.iter().collect();
    let mut out = Vec::new();
    loop {
        let mut position: BTreeMap<u64, usize> = BTreeMap::new();
        for g in &batchable {
            for (i, d) in g.scripts.iter().enumerate() {
                let p = position.entry(d.device).or_insert(0);
                *p = (*p).max(i);
            }
        }
        let mut order: Vec<u64> = position.keys().copied().collect();
        order.sort_by(|a, b| position[b].cmp(&position[a]).then(a.cmp(b)));
        let commit_index: BTreeMap<u64, usize> =
            order.iter().enumerate().map(|(i, d)| (*d, i)).collect();
        let violators: Vec<usize> = batchable
            .iter()
            .enumerate()
            .filter(|(_, g)| {
                g.scripts
                    .windows(2)
                    .any(|w| commit_index[&w[0].device] < commit_index[&w[1].device])
            })
            .map(|(k, _)| k)
            .collect();
        if violators.is_empty() {
            break;
        }
        for k in violators.into_iter().rev() {
            out.push(Violation::CommitOrderConflict {
                goal: batchable.remove(k).goal,
            });
        }
    }
    out.reverse();
    out
}

/// Module refcount claims: the created/reused split must cover the path's
/// modules exactly, and each claim must agree with the module → goal index
/// (a *created* module has no other user; a *reused* one has at least one).
pub(crate) fn check_refcounts(batch: &BatchModel) -> Vec<Violation> {
    let mut out = Vec::new();
    for g in &batch.goals {
        out.extend(check_goal_refcounts(g, &batch.module_users));
    }
    out
}

/// `check_refcounts` for a single goal against an explicit index
/// snapshot — the form the in-loop `debug_assertions` hook uses, where the
/// index mutates between goals as stale plans are taken out.
pub fn check_goal_refcounts(
    g: &GoalModel,
    module_users: &BTreeMap<String, BTreeSet<u64>>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let other_users = |m: &String| {
        module_users
            .get(m)
            .is_some_and(|users| users.iter().any(|u| *u != g.goal))
    };
    for m in &g.modules_created {
        if g.modules_reused.contains(m) {
            out.push(Violation::RefcountMismatch {
                goal: g.goal,
                module: m.clone(),
                detail: "claimed both created and reused".into(),
            });
        }
        if other_users(m) {
            out.push(Violation::RefcountMismatch {
                goal: g.goal,
                module: m.clone(),
                detail: "claimed as first use, but the index lists other users".into(),
            });
        }
    }
    for m in &g.modules_reused {
        if !other_users(m) {
            out.push(Violation::RefcountMismatch {
                goal: g.goal,
                module: m.clone(),
                detail: "claimed as shared, but the index lists no other user".into(),
            });
        }
    }
    let claimed: BTreeSet<&String> = g.modules_created.union(&g.modules_reused).collect();
    for m in &g.path_modules {
        if !claimed.contains(m) {
            out.push(Violation::RefcountMismatch {
                goal: g.goal,
                module: m.clone(),
                detail: "on the path but in neither the created nor the reused set".into(),
            });
        }
    }
    for m in claimed {
        if !g.path_modules.contains(m) {
            out.push(Violation::RefcountMismatch {
                goal: g.goal,
                module: m.clone(),
                detail: "classified but not on the path".into(),
            });
        }
    }
    out
}

/// Exclusion satisfiability: a plan must never traverse a module or cross
/// a link its own goal's diagnosis excluded.
pub fn check_exclusions(batch: &BatchModel) -> Vec<Violation> {
    let mut out = Vec::new();
    for g in &batch.goals {
        for m in g.path_modules.intersection(&g.excluded_modules) {
            out.push(Violation::ExclusionCrossed {
                goal: g.goal,
                target: format!("module {m}"),
            });
        }
        for (a, b) in g.path_links.intersection(&g.excluded_links) {
            out.push(Violation::ExclusionCrossed {
                goal: g.goal,
                target: format!("link ({a},{b})"),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::violation::Severity;

    /// A well-formed single-goal model over three devices.
    fn clean_goal(goal: u64, base: u32) -> GoalModel {
        let dev = |device: u64, creates: Vec<&str>| DeviceOps {
            device,
            creates: creates.iter().map(|s| s.to_string()).collect(),
            deletes: creates.iter().rev().map(|s| s.to_string()).collect(),
        };
        GoalModel {
            goal,
            pipe_base: base,
            pipe_slots: 4,
            scripts: vec![
                dev(1, vec!["pipe:a", "switch:x"]),
                dev(2, vec!["pipe:b"]),
                dev(3, vec!["pipe:c", "filter:y"]),
            ],
            teardown_devices: vec![3, 2, 1],
            path_modules: BTreeSet::from(["m1".into(), "m2".into()]),
            path_links: BTreeSet::from([(1, 2), (2, 3)]),
            excluded_modules: BTreeSet::new(),
            excluded_links: BTreeSet::new(),
            modules_created: BTreeSet::from(["m1".into(), "m2".into()]),
            modules_reused: BTreeSet::new(),
        }
    }

    fn batch_of(goals: Vec<GoalModel>) -> BatchModel {
        BatchModel {
            max_pipe_id: 1000,
            goals,
            module_users: BTreeMap::new(),
        }
    }

    #[test]
    fn a_clean_batch_verifies_with_zero_violations() {
        let batch = batch_of(vec![clean_goal(1, 0), clean_goal(2, 4)]);
        assert_eq!(verify_batch(&batch), vec![]);
    }

    #[test]
    fn overlapping_pipe_blocks_fire_pipe_overlap() {
        let batch = batch_of(vec![clean_goal(1, 0), clean_goal(2, 2)]);
        let vs = verify_batch(&batch);
        assert!(
            vs.iter().any(|v| matches!(
                v,
                Violation::PipeOverlap {
                    goal_a: 1,
                    goal_b: 2
                }
            )),
            "expected a PipeOverlap, got {vs:?}"
        );
        assert!(vs.iter().any(|v| v.severity() == Severity::Fatal));
    }

    #[test]
    fn a_block_past_the_cap_fires_pipe_space_exceeded() {
        let mut g = clean_goal(1, 998);
        g.pipe_slots = 4; // block [998, 1002) crosses max_pipe_id = 1000
        let vs = verify_batch(&batch_of(vec![g]));
        assert!(
            vs.iter().any(|v| matches!(
                v,
                Violation::PipeSpaceExceeded {
                    goal: 1,
                    last_pipe: 1001,
                    max: 1000
                }
            )),
            "expected a PipeSpaceExceeded, got {vs:?}"
        );
    }

    #[test]
    fn a_missing_delete_fires_teardown_mismatch() {
        let mut g = clean_goal(1, 0);
        g.scripts[0].deletes.pop(); // drop the mirror of the first create
        let vs = verify_batch(&batch_of(vec![g]));
        assert!(
            vs.iter().any(|v| matches!(
                v,
                Violation::TeardownMismatch {
                    goal: 1,
                    device: 1,
                    ..
                }
            )),
            "expected a TeardownMismatch, got {vs:?}"
        );
    }

    #[test]
    fn out_of_order_deletes_fire_teardown_mismatch() {
        let mut g = clean_goal(1, 0);
        g.scripts[0].deletes.reverse(); // right set, wrong (forward) order
        let vs = verify_batch(&batch_of(vec![g]));
        assert!(vs.iter().any(|v| matches!(
            v,
            Violation::TeardownMismatch {
                goal: 1,
                device: 1,
                ..
            }
        )));
    }

    #[test]
    fn a_forward_teardown_device_order_fires_teardown_mismatch() {
        let mut g = clean_goal(1, 0);
        g.teardown_devices = vec![1, 2, 3]; // forward, not mirrored
        let vs = verify_batch(&batch_of(vec![g]));
        assert!(vs.iter().any(|v| matches!(
            v,
            Violation::TeardownMismatch {
                goal: 1,
                device: 0,
                ..
            }
        )));
    }

    #[test]
    fn opposite_direction_paths_fire_an_advisory_commit_order_conflict() {
        let mut a = clean_goal(1, 0);
        let mut b = clean_goal(2, 4);
        // Goal 1 configures 1 → 2 → 3; goal 2 walks the same devices in the
        // opposite direction.  No single per-device commit order can put
        // each goal's later devices before its earlier ones for both.
        a.scripts.sort_by_key(|d| d.device);
        b.scripts.sort_by_key(|d| std::cmp::Reverse(d.device));
        b.teardown_devices = vec![1, 2, 3];
        let vs = check_commit_order(&batch_of(vec![a, b]));
        assert!(
            vs.iter()
                .any(|v| matches!(v, Violation::CommitOrderConflict { .. })),
            "expected a CommitOrderConflict, got {vs:?}"
        );
        assert!(
            vs.iter().all(|v| v.severity() == Severity::Advisory),
            "commit-order conflicts are advisory (the executor falls back)"
        );
    }

    #[test]
    fn a_false_first_use_claim_fires_refcount_mismatch() {
        let g = clean_goal(1, 0);
        let mut batch = batch_of(vec![g]);
        // The index says goal 9's applied plan already traverses m1, so
        // claiming it as "created" is wrong.
        batch
            .module_users
            .insert("m1".into(), BTreeSet::from([9u64]));
        let vs = verify_batch(&batch);
        assert!(
            vs.iter()
                .any(|v| matches!(v, Violation::RefcountMismatch { goal: 1, .. })),
            "expected a RefcountMismatch, got {vs:?}"
        );
    }

    #[test]
    fn a_false_shared_claim_fires_refcount_mismatch() {
        let mut g = clean_goal(1, 0);
        g.modules_created.remove("m2");
        g.modules_reused.insert("m2".into()); // nobody else uses m2
        let vs = verify_batch(&batch_of(vec![g]));
        assert!(vs
            .iter()
            .any(|v| matches!(v, Violation::RefcountMismatch { goal: 1, .. })));
    }

    #[test]
    fn an_unclassified_path_module_fires_refcount_mismatch() {
        let mut g = clean_goal(1, 0);
        g.path_modules.insert("m3".into()); // on the path, never classified
        let vs = verify_batch(&batch_of(vec![g]));
        assert!(vs
            .iter()
            .any(|v| matches!(v, Violation::RefcountMismatch { goal: 1, .. })));
    }

    #[test]
    fn crossing_an_excluded_link_fires_exclusion_crossed() {
        let mut g = clean_goal(1, 0);
        g.excluded_links.insert((2, 3)); // the path crosses (2,3)
        let vs = verify_batch(&batch_of(vec![g]));
        assert!(
            vs.iter()
                .any(|v| matches!(v, Violation::ExclusionCrossed { goal: 1, .. })),
            "expected an ExclusionCrossed, got {vs:?}"
        );
    }

    #[test]
    fn traversing_an_excluded_module_fires_exclusion_crossed() {
        let mut g = clean_goal(1, 0);
        g.excluded_modules.insert("m2".into());
        let vs = verify_batch(&batch_of(vec![g]));
        assert!(vs
            .iter()
            .any(|v| matches!(v, Violation::ExclusionCrossed { goal: 1, .. })));
    }

    #[test]
    fn same_direction_goals_share_one_commit_order() {
        // Both goals walk 1 → 2 → 3: one commit order (3, 2, 1) satisfies
        // both, so nothing is demoted.
        let batch = batch_of(vec![clean_goal(1, 0), clean_goal(2, 4)]);
        assert_eq!(check_commit_order(&batch), vec![]);
    }
}

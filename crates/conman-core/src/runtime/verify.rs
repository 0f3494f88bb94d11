//! Bridge to the `conman-analyze` pre-flight verifier: build the neutral
//! batch model from the runtime's own artefacts (`GoalStore`, [`Plan`]s,
//! [`ScriptSet`]s) and expose [`ManagedNetwork::verify_plans`].
//!
//! The analyzer deliberately knows nothing about the management layers —
//! its model speaks raw integer ids and display-string module keys, the
//! same vocabulary as the trace journal.  This module is the one place
//! that translation lives.  The batched reconcile pass and `run_batch`
//! call into it under `debug_assertions`, so every test run doubles as a
//! verification run of every plan the runtime produces.

use super::ManagedNetwork;
use crate::nm::{script, Exclusion, GoalStore, Plan, ScriptSet};
use crate::primitives::{ComponentRef, Primitive};
use conman_analyze::{BatchModel, DeviceOps, GoalModel, Violation};
use mgmt_channel::ManagementChannel;
use std::collections::{BTreeMap, BTreeSet};

/// The analyzer's key for a component: a create and its mirroring delete
/// name the same [`ComponentRef`], so they produce the same key.
fn key(component: ComponentRef) -> String {
    match component {
        ComponentRef::Pipe(pipe) => format!("pipe:{pipe}"),
        ComponentRef::SwitchRule(module, in_pipe, out_pipe) => {
            format!("switch:{module}:{in_pipe}:{out_pipe}")
        }
        ComponentRef::Filter(module, from, to) => format!("filter:{module}:{from}:{to}"),
    }
}

/// Per-device create/delete footprints of one script set, in configure
/// order, with the deletes taken from the set's own generated teardown.
fn script_ops(scripts: &ScriptSet) -> (Vec<DeviceOps>, Vec<u64>) {
    let teardown = scripts.teardown();
    let teardown_devices: Vec<u64> = teardown.iter().map(|(d, _)| d.as_u64()).collect();
    let n = scripts.scripts.len();
    let ops = scripts
        .scripts
        .iter()
        .enumerate()
        .map(|(i, ds)| DeviceOps {
            device: ds.device.as_u64(),
            creates: ScriptSet::created(ds).map(key).collect(),
            // `teardown` lists devices in reverse script order, so device
            // `i`'s deletes sit at the mirrored index.
            deletes: teardown[n - 1 - i]
                .1
                .iter()
                .filter_map(Primitive::component)
                .map(key)
                .collect(),
        })
        .collect();
    (ops, teardown_devices)
}

/// Normalised `(smaller, larger)` device pair of a physical hop.
fn link_key(a: u64, b: u64) -> (u64, u64) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The neutral model of one plan, in the context of its goal's record.
pub(crate) fn plan_model(goals: &GoalStore, plan: &Plan) -> GoalModel {
    let (scripts, teardown_devices) = script_ops(&plan.scripts);
    let mut path_modules = BTreeSet::new();
    for step in &plan.path.steps {
        path_modules.insert(step.module.to_string());
    }
    let mut path_links = BTreeSet::new();
    for w in plan.path.steps.windows(2) {
        let (a, b) = (w[0].module.device.as_u64(), w[1].module.device.as_u64());
        if a != b {
            path_links.insert(link_key(a, b));
        }
    }
    let mut excluded_modules = BTreeSet::new();
    let mut excluded_links = BTreeSet::new();
    if let Some(rec) = goals.get(plan.goal) {
        for e in &rec.excluded {
            match e {
                Exclusion::Module(m) => {
                    excluded_modules.insert(m.to_string());
                }
                Exclusion::Link(a, b) => {
                    excluded_links.insert(link_key(a.as_u64(), b.as_u64()));
                }
            }
        }
    }
    GoalModel {
        goal: plan.goal.0,
        pipe_base: plan.pipe_base,
        pipe_slots: script::slot_count(&plan.path),
        scripts,
        teardown_devices,
        path_modules,
        path_links,
        excluded_modules,
        excluded_links,
        modules_created: plan.modules_created.iter().map(|m| m.to_string()).collect(),
        modules_reused: plan.modules_reused.iter().map(|m| m.to_string()).collect(),
    }
}

/// The store's module → goal index in the analyzer's vocabulary.
pub(crate) fn module_users_model(goals: &GoalStore) -> BTreeMap<String, BTreeSet<u64>> {
    goals
        .module_users()
        .iter()
        .map(|(m, users)| (m.to_string(), users.iter().map(|g| g.0).collect()))
        .collect()
}

/// The neutral model of a whole planned batch against the store's current
/// index.
pub(crate) fn batch_model(goals: &GoalStore, plans: &[Plan]) -> BatchModel {
    BatchModel {
        max_pipe_id: GoalStore::MAX_PIPE_ID,
        goals: plans.iter().map(|p| plan_model(goals, p)).collect(),
        module_users: module_users_model(goals),
    }
}

/// A scripts-only model for execution-time checks (`run_batch` sees
/// script sets, not plans): carries the teardown-mirror and commit-order
/// facts, leaves pipe/refcount/exclusion fields empty.
#[cfg(debug_assertions)]
pub(crate) fn scripts_model(items: &[(crate::nm::GoalId, &ScriptSet)]) -> BatchModel {
    BatchModel {
        max_pipe_id: GoalStore::MAX_PIPE_ID,
        goals: items
            .iter()
            .map(|(id, scripts)| {
                let (ops, teardown_devices) = script_ops(scripts);
                GoalModel {
                    goal: id.0,
                    scripts: ops,
                    teardown_devices,
                    ..GoalModel::default()
                }
            })
            .collect(),
        module_users: BTreeMap::new(),
    }
}

impl<C: ManagementChannel> ManagedNetwork<C> {
    /// Statically verify a set of dry-run plans against the current goal
    /// store — the explicit entry point to the `conman-analyze` pre-flight
    /// verifier.  Returns every violation found (empty = safe); advisory
    /// findings ([`Violation::severity`]) predict runtime fallbacks rather
    /// than bugs.
    ///
    /// Pipe-block disjointness is checked on the plans as given: plans
    /// produced by successive [`Self::plan_goal`] calls share the peeked
    /// base until a block is consumed (`GoalStore::take_pipe_block`), the
    /// way the batched reconcile pass numbers them.
    pub fn verify_plans(&self, plans: &[Plan]) -> Vec<Violation> {
        conman_analyze::verify_batch(&batch_model(&self.goals, plans))
    }
}

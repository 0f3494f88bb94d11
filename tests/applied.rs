//! An applied plan is the bytes its goal staged.
//!
//! Once a plan's batch has staged it, the NM keeps a goal's scripts only as
//! the `StageBatch` segments it sent (`StagedScripts`).  These tests hold
//! every reader of that copy to the typed scripts it was staged from: the
//! teardown mirror and the claimed components read the same, and a restore
//! after a failed replace stages the same bytes again.

use conman::core::ids::{ModuleKind, PipeId};
use conman::core::module::ModuleError;
use conman::core::nm::script::generate_with_base;
use conman::core::nm::{GoalFailure, GoalId, StagedScripts};
use conman::core::primitives::{PipeSpec, Primitive, RefusalCause, WireMessage};
use conman::core::runtime::ManagedNetwork;
use conman::modules::{managed_chain, managed_chain_with, managed_vlan_chain};
use conman::netsim::device::DeviceId;
use conman_bench::diagnosis::chain_limits;
use conman_bench::{discovered_chain, synthetic_goal, FLEET_TWIN_CHAIN_N, FLEET_TWIN_GOALS};
use mgmt_channel::{ManagementChannel, OutOfBandChannel};
use std::collections::{BTreeMap, BTreeSet};

mod support;
use support::{Logged, Sent};

/// Goal `id`'s applied plan reads as the typed scripts it was generated
/// as: its path, numbered from its own pipe block.
fn assert_reads_as_typed<C: ManagementChannel>(mn: &ManagedNetwork<C>, id: GoalId, case: &str) {
    let rec = mn.goals.get(id).expect("goal exists");
    let applied = rec.applied().expect("the goal is applied");
    let typed = generate_with_base(&mn.nm, &applied.path, &rec.desired, applied.pipe_base);
    assert_eq!(applied.scripts, StagedScripts::from(&typed), "{case}");
    assert_eq!(applied.scripts.teardown(), typed.teardown(), "{case}");
    assert_eq!(applied.scripts.components(), typed.components(), "{case}");
    assert!(!typed.components().is_empty(), "{case}: claims something");
}

/// The fleet twin's pass, every technology the chain offers (installed
/// through `execute_plan`) and a VLAN goal: each applied plan's teardown
/// and claims are its typed plan's.
#[test]
fn an_applied_plan_reads_as_the_typed_plan_it_staged() {
    let mut t = discovered_chain(FLEET_TWIN_CHAIN_N);
    t.mn.goals.limits = chain_limits(FLEET_TWIN_CHAIN_N);
    let ids: Vec<GoalId> = (0..FLEET_TWIN_GOALS)
        .map(|class| t.mn.submit(synthetic_goal(&t, class)))
        .collect();
    assert!(t.mn.reconcile().converged());
    for id in ids {
        assert_reads_as_typed(&t.mn, id, "fleet twin");
    }

    let chain = || {
        let mut t = managed_chain(3);
        t.discover();
        t
    };
    let t = chain();
    let labels: BTreeSet<String> = (t.mn.nm.find_paths(&t.vpn_goal()).iter())
        .map(|p| p.technology_label())
        .collect();
    assert_eq!(labels.len(), 5, "{labels:?}");
    for technology in labels {
        let mut t = chain();
        let desired = t.vpn_goal();
        let id = t.mn.submit(desired.clone());
        let paths = t.mn.nm.find_paths(&desired);
        let path = paths.iter().find(|p| p.technology_label() == technology);
        let plan = t.mn.plan_for_path(id, path.expect("the path"));
        assert!(
            t.mn.execute_plan(plan.expect("a plan")).is_ok(),
            "{technology}"
        );
        assert_reads_as_typed(&t.mn, id, &technology);
        assert!(t.probe(), "{technology}: carries traffic");
    }

    let mut t = managed_vlan_chain(3);
    t.discover();
    let id = t.mn.submit(t.vlan_goal());
    assert!(t.mn.reconcile().converged());
    assert_reads_as_typed(&t.mn, id, "VLAN");
}

/// Every `StageBatch` frame in `log`, by txn id and destination, each
/// re-encoded with txn id 0 so two transactions' frames compare byte for
/// byte.
fn stages(log: &[Sent]) -> BTreeMap<u64, BTreeMap<DeviceId, Vec<u8>>> {
    let mut stages: BTreeMap<u64, BTreeMap<_, _>> = BTreeMap::new();
    for (_, to, _, payload) in log {
        if let Some(WireMessage::StageBatch { txn, segments }) = WireMessage::decode(payload) {
            let frame = WireMessage::StageBatch { txn: 0, segments };
            stages.entry(txn).or_default().insert(*to, frame.encode());
        }
    }
    stages
}

/// A replace refused at stage restores the goal's previous configuration
/// by staging the segments it kept: each device is sent, byte for byte,
/// the frame it was sent when the goal was first configured (its txn id
/// aside).  The goal keeps its applied plan, still carries traffic, and
/// the devices hold exactly what the store claims.
#[test]
fn a_failed_replace_restages_the_bytes_the_goal_staged() {
    let mut t = managed_chain_with(3, Logged::new(OutOfBandChannel::new()));
    t.discover();
    let id = t.mn.submit(t.vpn_goal());
    assert!(t.mn.reconcile().converged());
    let first = *stages(&t.mn.channel.log)
        .keys()
        .next()
        .expect("the pass staged");
    let before = t.mn.goals.get(id).and_then(|r| r.applied()).cloned();
    let before = before.expect("the goal is applied");

    // The same path in a fresh block, plus a GRE up pipe without the
    // trade-offs its dependency asks for: the egress router refuses it.
    let egress = t.core[2];
    let gre = t.mn.nm.find_module(egress, &ModuleKind::Gre).unwrap();
    let ip = t.mn.nm.find_module(egress, &ModuleKind::Ip).unwrap();
    let mut plan = t.mn.plan_for_path(id, &before.path).expect("a plan");
    let script = plan
        .scripts
        .scripts
        .iter_mut()
        .find(|ds| ds.device == egress);
    script
        .expect("the path crosses the egress router")
        .primitives
        .push(Primitive::CreatePipe(PipeSpec {
            pipe: PipeId(5000),
            upper: ip,
            lower: gre,
            peer_upper: None,
            peer_lower: None,
            peer_pipe: None,
            tradeoffs: vec![],
            initiate: false,
        }));
    let error = t.mn.execute_plan(plan);
    assert!(
        matches!(&error, Err(GoalFailure::Refused(r))
            if r.cause == RefusalCause::Module(ModuleError::MissingTradeoffs)),
        "{error:?}"
    );

    let stages = stages(&t.mn.channel.log);
    let (restore, resent) = stages.last_key_value().expect("the restore staged");
    assert!(*restore > first);
    let sent = &stages[&first];
    assert_eq!(sent.len(), before.scripts.segments().len());
    assert_eq!(resent, sent, "the restore stages the bytes the goal staged");
    let after = t.mn.goals.get(id).and_then(|r| r.applied());
    assert_eq!(after, Some(&before), "the goal keeps its applied plan");
    assert!(t.probe(), "the restored goal carries traffic");
    assert_eq!(t.mn.audit(), []);
}

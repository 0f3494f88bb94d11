//! Shared helpers for the table/figure reproduction harness
//! (`src/bin/experiments.rs`), including the closed-loop diagnosis
//! experiments (time-to-detect / time-to-repair).
//!
//! Everything here is deterministic: counts, ticks and simulated time only,
//! so two runs print byte-identical output.  Anything timed on the wall
//! clock is measured by the stand-alone `benchmark/` package and read from
//! it by metric name.

#![forbid(unsafe_code)]

pub mod control_loop;
pub mod diagnosis;
pub mod obs;

pub use control_loop::{
    assert_loop_healthy, assert_one_pass_reroute, loop_run, loop_run_inband, mesh_loop_run,
    recorded_loop_run, recorded_mesh_loop_run, LoopBenchReport, LoopScenario,
};
pub use diagnosis::{closed_loop_run, ClosedLoopReport, DiagnosisScenario};
pub use obs::{assert_journal_conforms, recorded_mesh_link_cut, RecordedMeshRun};

use conman_core::nm::ModulePath;
use conman_core::runtime::ManagedNetwork;
use conman_modules::{managed_chain, managed_vlan_chain, ManagedChain, ManagedVlanChain};
use mgmt_channel::{ManagementChannel, MessageCategory, OutOfBandChannel};

/// A discovered Figure-4-style chain, ready for path finding.
pub fn discovered_chain(n: usize) -> ManagedChain<OutOfBandChannel> {
    let mut t = managed_chain(n);
    t.discover();
    t
}

/// A discovered VLAN chain.
pub fn discovered_vlan_chain(n: usize) -> ManagedVlanChain<OutOfBandChannel> {
    let mut t = managed_vlan_chain(n);
    t.discover();
    t
}

/// Pick the path with the given technology label.
pub fn path_labelled(paths: &[ModulePath], label: &str) -> ModulePath {
    paths
        .iter()
        .find(|p| p.technology_label() == label)
        .unwrap_or_else(|| {
            panic!(
                "no {label} path among {:?}",
                paths
                    .iter()
                    .map(|p| p.technology_label())
                    .collect::<Vec<_>>()
            )
        })
        .clone()
}

/// NM messages (sent, received) counted the way Table VI counts them:
/// commands + relayed module messages on the sent side, relayed module
/// messages + notifications on the received side.
pub fn table6_counts<C: ManagementChannel>(mn: &ManagedNetwork<C>) -> (u64, u64) {
    let c = mn.nm_counters();
    let sent = [
        MessageCategory::Command,
        MessageCategory::ConveyMessage,
        MessageCategory::FieldQuery,
    ]
    .iter()
    .map(|k| c.sent_by_category.get(k).copied().unwrap_or(0))
    .sum();
    let received = [
        MessageCategory::ConveyMessage,
        MessageCategory::FieldQuery,
        MessageCategory::Notification,
    ]
    .iter()
    .map(|k| c.received_by_category.get(k).copied().unwrap_or(0))
    .sum();
    (sent, received)
}

/// Configure a chain over the path with the given label and return the NM's
/// configuration-phase (sent, received) counts.
pub fn configure_and_count(n: usize, label: &str) -> (u64, u64) {
    let mut t = discovered_chain(n);
    let goal = t.vpn_goal();
    let paths = t.mn.nm.find_paths(&goal);
    let path = path_labelled(&paths, label);
    t.mn.reset_counters();
    t.mn.execute_path(&path, &goal);
    table6_counts(&t.mn)
}

/// Configure a VLAN chain and return the NM's (sent, received) counts.
pub fn configure_vlan_and_count(n: usize) -> (u64, u64) {
    let mut t = discovered_vlan_chain(n);
    let goal = t.vlan_goal();
    let paths = t.mn.nm.find_paths(&goal);
    let path = paths.first().expect("VLAN path").clone();
    t.mn.reset_counters();
    t.mn.execute_path(&path, &goal);
    table6_counts(&t.mn)
}

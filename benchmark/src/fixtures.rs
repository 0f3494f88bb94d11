//! The few fixtures the benchmark needs, kept as its own copies so the rest
//! of `conman-bench` can change without moving the benchmark: synthetic
//! goals, path-finder limits, converged fleets, wire-cost snapshots, the
//! Table VI check and the process's memory reading.
//!
//! Everything here goes through the public API of the library crates.

use conman_core::nm::{ConnectivityGoal, GoalId, GoalStatus, PathFinderLimits};
use conman_core::runtime::{ControlLoop, GoalEndpoints, LoopConfig, ManagedNetwork};
use conman_core::WireCodec;
use conman_diagnose::AutonomicClient;
use conman_modules::{
    managed_chain, managed_fanout_chain, managed_mesh_fanout, managed_vlan_chain, ManagedChain,
    ManagedMesh,
};
use mgmt_channel::{MessageCategory, OutOfBandChannel};
use netsim::device::DeviceId;
use std::net::Ipv4Addr;

pub type Oob = OutOfBandChannel;
pub type Chain = ManagedChain<Oob>;
pub type Mesh = ManagedMesh<Oob>;
pub type Loop = ControlLoop<Oob>;

/// Core routers of every chain fleet.
pub const CHAIN_N: usize = 10;
/// Stages of the 2×k repair mesh.
pub const MESH_K: usize = 3;

/// Path-finder limits for an `n`-router chain.
pub fn chain_limits(n: usize) -> PathFinderLimits {
    PathFinderLimits {
        max_steps: 3 * n + 16,
        max_paths: 32,
    }
}

/// Path-finder limits for the 2×k mesh (longer module paths, and genuine
/// alternatives worth keeping in the enumeration budget).
pub fn mesh_limits(k: usize) -> PathFinderLimits {
    PathFinderLimits {
        max_steps: 3 * (k + 2) + 16,
        max_paths: 64,
    }
}

/// The synthetic VPN goal of site-class number `class` on a chain: the same
/// customer-facing interfaces for every goal, a distinct pair of site
/// classes each, so every goal plans its own path in its own pipe-id block
/// and shares the ISP core modules with every other goal.
pub fn synthetic_goal(t: &Chain, class: usize) -> ConnectivityGoal {
    let mut goal = t.vpn_goal();
    let k = class + 1; // keep 10.0.x.0 (the real customer) out of the space
    goal.src_class = format!("C{k}-S1");
    goal.dst_class = format!("C{k}-S2");
    goal.resolved.remove("C1-S1");
    goal.resolved.remove("C1-S2");
    goal.resolved
        .insert(format!("C{k}-S1"), format!("10.{k}.1.0/24"));
    goal.resolved
        .insert(format!("C{k}-S2"), format!("10.{k}.2.0/24"));
    goal
}

/// A discovered [`CHAIN_N`]-router chain with no goals yet.
pub fn discovered_chain(codec: WireCodec) -> Chain {
    let mut t = managed_chain(CHAIN_N);
    t.discover();
    t.mn.goals.limits = chain_limits(CHAIN_N);
    t.mn.codec = codec;
    t
}

/// A discovered chain with the synthetic goals of `classes` submitted in
/// that order, not yet reconciled.
pub fn submitted_chain(codec: WireCodec, classes: &[usize]) -> (Chain, Vec<GoalId>) {
    let mut t = discovered_chain(codec);
    let ids = classes
        .iter()
        .map(|&c| {
            let goal = synthetic_goal(&t, c);
            t.mn.submit(goal)
        })
        .collect();
    (t, ids)
}

/// What the chain and mesh fan-out testbeds have in common, so one function
/// converges a loop-driven fleet on either.
pub trait FanoutBed {
    fn mn(&mut self) -> &mut ManagedNetwork<Oob>;
    fn discover_all(&mut self);
    fn goal(&self, k: usize) -> ConnectivityGoal;
    fn endpoints(&self, k: usize) -> GoalEndpoints;
    fn probe_goal(&mut self, k: usize) -> bool;
}

fn endpoints_of((src, dst, dst_ip): (DeviceId, DeviceId, Ipv4Addr)) -> GoalEndpoints {
    GoalEndpoints { src, dst, dst_ip }
}

impl FanoutBed for Chain {
    fn mn(&mut self) -> &mut ManagedNetwork<Oob> {
        &mut self.mn
    }
    fn discover_all(&mut self) {
        self.discover();
    }
    fn goal(&self, k: usize) -> ConnectivityGoal {
        self.fanout_goal(k)
    }
    fn endpoints(&self, k: usize) -> GoalEndpoints {
        endpoints_of(self.fanout_probe(k))
    }
    fn probe_goal(&mut self, k: usize) -> bool {
        self.probe_pair(k)
    }
}

impl FanoutBed for Mesh {
    fn mn(&mut self) -> &mut ManagedNetwork<Oob> {
        &mut self.mn
    }
    fn discover_all(&mut self) {
        self.discover();
    }
    fn goal(&self, k: usize) -> ConnectivityGoal {
        self.fanout_goal(k)
    }
    fn endpoints(&self, k: usize) -> GoalEndpoints {
        endpoints_of(self.fanout_probe(k))
    }
    fn probe_goal(&mut self, k: usize) -> bool {
        self.probe_pair(k)
    }
}

/// A fleet the autonomic loop has converged: the testbed, its loop, and the
/// goal ids in submit order (`pairs[i]` is the fan-out pair behind `ids[i]`).
pub struct LoopFleet<T> {
    pub t: T,
    pub cl: Loop,
    pub ids: Vec<GoalId>,
    pub pairs: Vec<usize>,
}

/// Discover `t`, submit one goal per fan-out pair in the order of `pairs`,
/// and let the loop (default config, `AutonomicClient::new(2)`) converge the
/// fleet with no operator call.
pub fn converge_fleet<T: FanoutBed>(
    mut t: T,
    limits: PathFinderLimits,
    pairs: Vec<usize>,
) -> LoopFleet<T> {
    t.discover_all();
    t.mn().goals.limits = limits;
    let mut cl = ControlLoop::new(t.mn(), LoopConfig::default())
        .with_client(Box::new(AutonomicClient::new(2)));
    let mut ids = Vec::with_capacity(pairs.len());
    for &k in &pairs {
        let goal = t.goal(k);
        let id = t.mn().submit(goal);
        cl.track(id, t.endpoints(k));
        ids.push(id);
    }
    let setup = cl.run_until_converged(t.mn(), 16);
    assert!(setup.converged, "fleet must converge during set-up");
    LoopFleet { t, cl, ids, pairs }
}

/// A converged fan-out chain fleet (default JSON codec).
pub fn converged_chain_fleet(pairs: Vec<usize>) -> LoopFleet<Chain> {
    let t = managed_fanout_chain(CHAIN_N, pairs.len());
    converge_fleet(t, chain_limits(CHAIN_N), pairs)
}

/// A converged 2×[`MESH_K`] mesh fleet (default JSON codec).
pub fn converged_mesh_fleet(pairs: Vec<usize>) -> LoopFleet<Mesh> {
    let t = managed_mesh_fanout(MESH_K, pairs.len());
    converge_fleet(t, mesh_limits(MESH_K), pairs)
}

/// Goals of the store that are `Active`.
pub fn active_goals(mn: &ManagedNetwork<Oob>) -> usize {
    mn.goals
        .iter()
        .filter(|r| r.status == GoalStatus::Active)
        .count()
}

/// Cumulative management cost on every wire of a managed network: what the
/// NM sent and received over the management channel, and what the links
/// delivered (probe traffic on the out-of-band testbeds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Wire {
    /// NM messages sent + received.
    pub nm_msgs: u64,
    /// NM `bytes_sent + bytes_received`.
    pub nm_bytes: u64,
    /// Link-level frames delivered.
    pub frames: u64,
    /// Bytes received on device ports (the frames' bytes).
    pub frame_bytes: u64,
}

impl Wire {
    pub fn of(mn: &ManagedNetwork<Oob>) -> Wire {
        let c = mn.nm_counters();
        let frame_bytes = mn
            .net
            .devices()
            .flat_map(|d| d.stats.ports.values())
            .map(|p| p.rx_bytes)
            .sum();
        Wire {
            nm_msgs: c.sent + c.received,
            nm_bytes: c.bytes_sent + c.bytes_received,
            frames: mn.net.frames_delivered(),
            frame_bytes,
        }
    }

    /// The cost accrued since `earlier`.
    pub fn since(self, earlier: Wire) -> Wire {
        Wire {
            nm_msgs: self.nm_msgs - earlier.nm_msgs,
            nm_bytes: self.nm_bytes - earlier.nm_bytes,
            frames: self.frames - earlier.frames,
            frame_bytes: self.frame_bytes - earlier.frame_bytes,
        }
    }

    pub fn add(&mut self, other: Wire) {
        self.nm_msgs += other.nm_msgs;
        self.nm_bytes += other.nm_bytes;
        self.frames += other.frames;
        self.frame_bytes += other.frame_bytes;
    }
}

/// NM (sent, received) counted the way Table VI counts them: commands plus
/// relayed module messages sent; relayed messages plus notifications
/// received.
fn table6_counts(mn: &ManagedNetwork<Oob>) -> (u64, u64) {
    let c = mn.nm_counters();
    let sum = |by: &std::collections::BTreeMap<MessageCategory, u64>,
               kinds: [MessageCategory; 3]| {
        kinds.iter().map(|k| by.get(k).copied().unwrap_or(0)).sum()
    };
    let sent = sum(
        &c.sent_by_category,
        [
            MessageCategory::Command,
            MessageCategory::ConveyMessage,
            MessageCategory::FieldQuery,
        ],
    );
    let received = sum(
        &c.received_by_category,
        [
            MessageCategory::ConveyMessage,
            MessageCategory::FieldQuery,
            MessageCategory::Notification,
        ],
    );
    (sent, received)
}

/// Chain size of the Table VI check.
pub const TABLE6_N: usize = 10;

/// The paper's Table VI message expressions at n = [`TABLE6_N`]: GRE
/// 3n+2 sent / 2n+2 received, MPLS and VLAN 3n−2 / 2n−1.  Checked once per
/// run so a benchmark result never comes from a program whose message
/// accounting has drifted from the paper's.
pub fn table6_holds() -> Result<(), String> {
    let n = TABLE6_N;
    let l3 = |label: &str| -> Result<(u64, u64), String> {
        let mut t = managed_chain(n);
        t.discover();
        let goal = t.vpn_goal();
        let paths = t.mn.nm.find_paths(&goal);
        let path = paths
            .iter()
            .find(|p| p.technology_label() == label)
            .ok_or_else(|| format!("Table VI: no {label} path at n={n}"))?
            .clone();
        t.mn.reset_counters();
        t.mn.execute_path(&path, &goal);
        Ok(table6_counts(&t.mn))
    };
    let vlan = || -> Result<(u64, u64), String> {
        let mut t = managed_vlan_chain(n);
        t.discover();
        let goal = t.vlan_goal();
        let paths = t.mn.nm.find_paths(&goal);
        let path = paths.first().ok_or("Table VI: no VLAN path")?.clone();
        t.mn.reset_counters();
        t.mn.execute_path(&path, &goal);
        Ok(table6_counts(&t.mn))
    };
    let n = n as u64;
    let rows = [
        ("GRE", l3("GRE-IP")?, (3 * n + 2, 2 * n + 2)),
        ("MPLS", l3("MPLS")?, (3 * n - 2, 2 * n - 1)),
        ("VLAN", vlan()?, (3 * n - 2, 2 * n - 1)),
    ];
    for (name, got, want) in rows {
        if got != want {
            return Err(format!(
                "Table VI {name} at n={n}: sent/received {got:?}, paper {want:?}"
            ));
        }
    }
    Ok(())
}

/// `(VmHWM, VmRSS)` of this process in KiB, from `/proc/self/status`.
pub fn rss_kb() -> (u64, u64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kb| kb.parse().ok())
            .unwrap_or(0)
    };
    (field("VmHWM:"), field("VmRSS:"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_expressions_hold() {
        let start = std::time::Instant::now();
        assert_eq!(table6_holds(), Ok(()));
        eprintln!("table6 took {:?}", start.elapsed());
    }
}

//! Shared helpers for the table/figure reproduction harness
//! (`src/bin/experiments.rs`), including the closed-loop diagnosis
//! experiments (time-to-detect / time-to-repair).
//!
//! Everything here is deterministic: counts, ticks and simulated time only,
//! so two runs print byte-identical output.  Anything timed on the wall
//! clock is measured by the stand-alone `benchmark/` package and read from
//! it by metric name.

// Only `held`'s counting allocator may use `unsafe`, and says so itself.
#![deny(unsafe_code)]

pub mod control_loop;
pub mod diagnosis;
pub mod held;
pub mod obs;

pub use control_loop::{
    assert_loop_healthy, assert_one_pass_reroute, loop_run, loop_run_inband, mesh_loop_run,
    recorded_loop_run, recorded_mesh_loop_run, LoopBenchReport, LoopScenario,
};
pub use diagnosis::{closed_loop_run, ClosedLoopReport, DiagnosisScenario};
pub use obs::{assert_journal_conforms, recorded_mesh_link_cut, RecordedMeshRun};

use conman_core::nm::{ConnectivityGoal, ModulePath};
use conman_core::runtime::{ChannelCounters, ManagedNetwork};
use conman_modules::{
    managed_chain, managed_fanout_chain_with, managed_vlan_chain, ManagedChain, ManagedVlanChain,
};
use conman_obs::Recorder;
use diagnosis::chain_limits;
use held::Held;
use mgmt_channel::{InBandChannel, ManagementChannel, MessageCategory, OutOfBandChannel};
use std::collections::BTreeMap;

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

/// The categories Table VI counts the NM sending: commands and relayed
/// module messages.
const TABLE6_SENT: [MessageCategory; 3] = [
    MessageCategory::Command,
    MessageCategory::ConveyMessage,
    MessageCategory::FieldQuery,
];

/// The categories Table VI counts the NM receiving: relayed module messages
/// and notifications (script results / responses are excluded, as in the
/// paper).
const TABLE6_RECEIVED: [MessageCategory; 3] = [
    MessageCategory::ConveyMessage,
    MessageCategory::FieldQuery,
    MessageCategory::Notification,
];

/// What the NM sent and received over the management channel: messages and
/// their payload bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NmCost {
    /// Messages sent.
    pub sent: u64,
    /// Messages received.
    pub received: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
}

/// NM messages and bytes counted the way Table VI counts messages: commands
/// and relayed module messages sent; relayed module messages and
/// notifications received.
pub fn table6_counts<C: ManagementChannel>(mn: &ManagedNetwork<C>) -> NmCost {
    let c = mn.nm_counters();
    let sum = |by: &BTreeMap<MessageCategory, u64>, kinds: &[MessageCategory]| {
        kinds.iter().map(|k| by.get(k).copied().unwrap_or(0)).sum()
    };
    NmCost {
        sent: sum(&c.sent_by_category, &TABLE6_SENT),
        received: sum(&c.received_by_category, &TABLE6_RECEIVED),
        bytes_sent: sum(&c.bytes_sent_by_category, &TABLE6_SENT),
        bytes_received: sum(&c.bytes_received_by_category, &TABLE6_RECEIVED),
    }
}

/// Configure a chain over the path with the given label and return the NM's
/// configuration-phase cost.
pub fn configure_and_count(n: usize, label: &str) -> NmCost {
    let mut t = discovered_chain(n);
    let goal = t.vpn_goal();
    let paths = t.mn.nm.find_paths(&goal);
    let path = path_labelled(&paths, label);
    t.mn.reset_counters();
    t.mn.execute_path(&path, &goal);
    table6_counts(&t.mn)
}

/// Configure a VLAN chain and return the NM's configuration-phase cost.
pub fn configure_vlan_and_count(n: usize) -> NmCost {
    let mut t = discovered_vlan_chain(n);
    let goal = t.vlan_goal();
    let paths = t.mn.nm.find_paths(&goal);
    let path = paths.first().expect("VLAN path").clone();
    t.mn.reset_counters();
    t.mn.execute_path(&path, &goal);
    table6_counts(&t.mn)
}

/// Cumulative cost on every wire of a managed network: what the NM sent and
/// received over the management channel, and the frames the links delivered
/// with their bytes (probe traffic on the out-of-band testbeds, and every
/// flooded management frame too on the in-band one).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireCost {
    /// The NM's messages and payload bytes, every category.
    pub nm: NmCost,
    /// Link-level frames delivered.
    pub frames: u64,
    /// Bytes received on device ports (the data-plane frames' bytes).
    pub frame_bytes: u64,
    /// Bytes of the management frames the in-band channel flooded, which
    /// the port counters leave out: its `inband.bytes_flooded` metric, so
    /// 0 out of band and wherever no recorder is attached.
    pub flooded_bytes: u64,
}

impl WireCost {
    /// The cost accrued so far.
    pub fn of<C: ManagementChannel>(mn: &ManagedNetwork<C>) -> WireCost {
        let c = mn.nm_counters();
        WireCost {
            nm: NmCost {
                sent: c.sent,
                received: c.received,
                bytes_sent: c.bytes_sent,
                bytes_received: c.bytes_received,
            },
            frames: mn.net.frames_delivered(),
            frame_bytes: mn
                .net
                .devices()
                .flat_map(|d| d.stats.ports.values())
                .map(|p| p.rx_bytes)
                .sum(),
            flooded_bytes: mn.recorder.counter("inband.bytes_flooded"),
        }
    }

    /// The cost accrued since `earlier`, a reading of the same network with
    /// no counter reset in between.
    pub fn since(self, earlier: WireCost) -> WireCost {
        WireCost {
            nm: NmCost {
                sent: self.nm.sent - earlier.nm.sent,
                received: self.nm.received - earlier.nm.received,
                bytes_sent: self.nm.bytes_sent - earlier.nm.bytes_sent,
                bytes_received: self.nm.bytes_received - earlier.nm.bytes_received,
            },
            frames: self.frames - earlier.frames,
            frame_bytes: self.frame_bytes - earlier.frame_bytes,
            flooded_bytes: self.flooded_bytes - earlier.flooded_bytes,
        }
    }
}

/// Core routers of the chain the [`fleet_twin`] runs on, as in the
/// benchmark's fleet workloads.
pub const FLEET_TWIN_CHAIN_N: usize = 10;

/// Goals the [`fleet_twin`] configures.
pub const FLEET_TWIN_GOALS: usize = 64;

/// The synthetic VPN goal of site-class number `class` on a chain: the same
/// customer-facing interfaces for every goal and a distinct pair of site
/// classes each, so every goal plans its own path in its own pipe-id block
/// and shares the core modules with every other goal.
pub fn synthetic_goal(t: &ManagedChain<OutOfBandChannel>, class: usize) -> ConnectivityGoal {
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

/// What the [`fleet_twin`] measured.
#[derive(Debug, Clone)]
pub struct FleetTwin {
    /// The NM's counters for the pass, by message category.
    pub counters: ChannelCounters,
    /// What the pass cost on every wire.
    pub wire: WireCost,
    /// The most heap bytes live at once during the pass, over what was
    /// live when it started.
    pub pass_peak: usize,
    /// The heap calls the pass made.
    pub pass_allocs: held::Allocs,
    /// The heap bytes the converged network holds, by holder.
    pub held: Held,
}

/// The deterministic twin of the benchmark's `fleet_cold` workload:
/// [`FLEET_TWIN_GOALS`] synthetic VPN goals, submitted in class order on a
/// discovered [`FLEET_TWIN_CHAIN_N`]-router chain and configured by one
/// reconcile pass.  The pass searches paths on the calling thread
/// (`reconcile_sequential`, byte-equivalent to `reconcile()`), so no
/// planner thread's heap sets the peak and every machine reads the same
/// numbers.  The heap counts are zero unless the caller installed
/// [`held::Counting`].
pub fn fleet_twin() -> FleetTwin {
    let mut t = discovered_chain(FLEET_TWIN_CHAIN_N);
    t.mn.goals.limits = chain_limits(FLEET_TWIN_CHAIN_N);
    for class in 0..FLEET_TWIN_GOALS {
        let goal = synthetic_goal(&t, class);
        t.mn.submit(goal);
    }
    t.mn.reset_counters();
    let before = WireCost::of(&t.mn);
    let baseline = held::live_bytes();
    held::reset_peak();
    let allocs = held::allocs();
    let report = t.mn.reconcile_sequential();
    let pass_allocs = held::allocs().since(allocs);
    let pass_peak = held::peak_bytes().saturating_sub(baseline);
    assert_eq!(
        report.active(),
        FLEET_TWIN_GOALS,
        "every twin goal is configured"
    );
    assert_eq!(report.transactions, 1, "in one transaction");
    FleetTwin {
        counters: t.mn.nm_counters(),
        wire: WireCost::of(&t.mn).since(before),
        pass_peak,
        pass_allocs,
        held: Held::take_from(&mut t.mn),
    }
}

/// What the [`inband_fleet`] measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InBandFleet {
    /// Simulated milliseconds `discover()` took.
    pub discover_ms: u64,
    /// Simulated milliseconds the one `reconcile()` pass took.
    pub pass_ms: u64,
    /// Messages the NM sent during the pass.
    pub nm_sent: u64,
    /// Messages the NM received during the pass.
    pub nm_received: u64,
    /// Frames the channel flooded over the whole run: discovery, the pass
    /// and the closing `audit()`.
    pub frames_flooded: u64,
    /// Their bytes, Ethernet headers included.
    pub bytes_flooded: u64,
}

/// The fleet over the **in-band** channel: [`FLEET_TWIN_GOALS`] fan-out
/// goals on a [`FLEET_TWIN_CHAIN_N`]-router fan-out chain, discovered,
/// submitted and configured by one `reconcile()` pass, then audited.
/// Simulated time is what a management round costs there, since every
/// round's flood steps the simulated network.
pub fn inband_fleet() -> InBandFleet {
    let (n, goals) = (FLEET_TWIN_CHAIN_N, FLEET_TWIN_GOALS);
    let mut t = managed_fanout_chain_with(n, goals, InBandChannel::new());
    t.mn.set_recorder(Recorder::new());
    let ms = |t: &ManagedChain<InBandChannel>| t.mn.net.now().as_nanos() / 1_000_000;
    let start = ms(&t);
    t.discover();
    let discovered = ms(&t);
    t.mn.goals.limits = chain_limits(n);
    for k in 0..goals {
        let goal = t.fanout_goal(k);
        t.mn.submit(goal);
    }
    let before = ms(&t);
    let report = t.mn.reconcile();
    let pass_ms = ms(&t) - before;
    assert_eq!(report.active(), goals, "every in-band goal is configured");
    assert_eq!(t.mn.recorder.counter("mgmt.round_cap_hit"), 0);
    assert_eq!(t.mn.audit(), [], "the devices hold what the goals claim");
    InBandFleet {
        discover_ms: discovered - start,
        pass_ms,
        nm_sent: report.nm_sent,
        nm_received: report.nm_received,
        frames_flooded: t.mn.channel.frames_flooded,
        bytes_flooded: t.mn.channel.bytes_flooded,
    }
}

//! Fault injection: deterministic, replayable fault timelines.
//!
//! CONMan's §III-C argues that the same machinery that configures a network
//! can diagnose it.  To exercise that claim the simulator needs faults worth
//! diagnosing: link cuts and flaps, loss spikes, device crashes and module
//! misconfigurations.  A [`FaultPlan`] is a time-ordered list of such events
//! driven by the deterministic simulation clock, so a scenario replays
//! *exactly* — same seed, same timeline, same packet-level outcome — which is
//! what the diagnosis tests and the time-to-detect/time-to-repair experiments
//! rely on.

use crate::clock::SimTime;
use crate::device::DeviceId;
use crate::link::LinkId;
use crate::network::Network;
use crate::route::RouteTableId;

/// A configuration-level fault: state on a device is corrupted or lost, the
/// classic "confused/buggy/malicious station" failures of §III-C.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Misconfiguration {
    /// Shift every GRE tunnel's receive key on the device (`ikey += delta`),
    /// the key-mismatch misconfiguration the paper repeatedly cites.
    CorruptGreKey {
        /// Device whose tunnels are corrupted.
        device: DeviceId,
        /// Amount added to each configured `ikey`.
        delta: u32,
    },
    /// Drop the device's MPLS ILM/NHLFE/cross-connect state, killing every
    /// LSP through it while leaving IP forwarding intact.
    ClearMplsState {
        /// Device whose label state is flushed.
        device: DeviceId,
    },
    /// Flush all policy-routing rules and non-main tables, the
    /// "operator fat-fingers the router config" failure.
    FlushPolicyRouting {
        /// Device whose policy routing is flushed.
        device: DeviceId,
    },
    /// Flush a contiguous range of non-main route tables (and the policy
    /// rules pointing at them) on one device.  Because the NM derives a
    /// goal's table ids from its disjoint pipe-id block, a range covering
    /// exactly one goal's block is a *per-flow* fault: that goal's transit
    /// state vanishes while every other goal through the same device keeps
    /// forwarding — the scenario that separates per-goal counter
    /// attribution from device-total diagnosis.
    FlushRouteTables {
        /// Device whose tables are flushed.
        device: DeviceId,
        /// First table id of the flushed range (inclusive).
        first: RouteTableId,
        /// Last table id of the flushed range (inclusive).
        last: RouteTableId,
    },
}

impl Misconfiguration {
    /// The device the misconfiguration hits.
    pub fn device(&self) -> DeviceId {
        match self {
            Misconfiguration::CorruptGreKey { device, .. }
            | Misconfiguration::ClearMplsState { device }
            | Misconfiguration::FlushPolicyRouting { device }
            | Misconfiguration::FlushRouteTables { device, .. } => *device,
        }
    }
}

/// One injectable fault (or repair) action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Administratively cut a link (the wire is yanked).
    LinkCut(LinkId),
    /// Re-enable a previously cut link.
    LinkRestore(LinkId),
    /// Set a link's deterministic loss rate in parts per million
    /// (1_000_000 = blackhole while staying administratively up).
    LossSpike {
        /// Affected link.
        link: LinkId,
        /// New loss rate in parts per million.
        loss_ppm: u32,
    },
    /// Power off a device: it stops forwarding *and* stops answering the
    /// management channel.
    DeviceCrash(DeviceId),
    /// Power a crashed device back on (its configuration survives; runtime
    /// caches are flushed as after a reboot).
    DeviceRestore(DeviceId),
    /// Corrupt or lose configuration state on a device.
    Misconfigure(Misconfiguration),
}

/// A fault scheduled at a point in simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, time-ordered fault timeline.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule an event.  Events are kept sorted by time; ties preserve
    /// insertion order.
    fn push(&mut self, at: SimTime, kind: FaultKind) {
        let pos = self.events.partition_point(|e| e.at <= at);
        self.events.insert(pos, FaultEvent { at, kind });
    }

    /// Schedule a link flap: `cycles` repetitions of cut-then-restore,
    /// starting at `start`, down for `down_for` and up for `up_for` per
    /// cycle.
    pub fn flap(
        mut self,
        link: LinkId,
        start: SimTime,
        down_for: crate::clock::SimDuration,
        up_for: crate::clock::SimDuration,
        cycles: u32,
    ) -> Self {
        let mut t = start;
        for _ in 0..cycles {
            self.push(t, FaultKind::LinkCut(link));
            t += down_for;
            self.push(t, FaultKind::LinkRestore(link));
            t += up_for;
        }
        self
    }
}

/// Applies a [`FaultPlan`] to a network as simulated time advances.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    cursor: usize,
}

impl FaultInjector {
    /// Create an injector over a plan.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector { plan, cursor: 0 }
    }

    /// Events not yet applied.
    pub fn pending(&self) -> usize {
        self.plan.events.len() - self.cursor
    }

    /// Apply every event whose time has come (`at <= net.now()`).  Returns
    /// the number of events applied.
    pub fn apply_due(&mut self, net: &mut Network) -> usize {
        let now = net.now();
        let mut applied = 0;
        while let Some(event) = self.plan.events.get(self.cursor) {
            if event.at > now {
                break;
            }
            apply_fault(net, event.kind);
            self.cursor += 1;
            applied += 1;
        }
        applied
    }
}

/// Apply a single fault to the network, immediately.
pub fn apply_fault(net: &mut Network, kind: FaultKind) {
    match kind {
        FaultKind::LinkCut(link) => net.set_link_enabled(link, false),
        FaultKind::LinkRestore(link) => net.set_link_enabled(link, true),
        FaultKind::LossSpike { link, loss_ppm } => net.set_link_loss(link, loss_ppm),
        FaultKind::DeviceCrash(device) => net.set_device_up(device, false),
        FaultKind::DeviceRestore(device) => net.set_device_up(device, true),
        FaultKind::Misconfigure(m) => apply_misconfiguration(net, m),
    }
}

fn apply_misconfiguration(net: &mut Network, m: Misconfiguration) {
    let Ok(device) = net.device_mut(m.device()) else {
        return;
    };
    match m {
        Misconfiguration::CorruptGreKey { delta, .. } => {
            device.config.corrupt_ikeys(delta);
        }
        Misconfiguration::ClearMplsState { .. } => {
            device.config.mpls = crate::mpls::MplsTables::new();
        }
        Misconfiguration::FlushPolicyRouting { .. } => {
            let main = device
                .config
                .rib
                .table(RouteTableId::MAIN)
                .cloned()
                .unwrap_or_default();
            let mut rib = crate::route::Rib::new();
            for route in main.routes() {
                rib.add_main(*route);
            }
            device.config.rib = rib;
        }
        Misconfiguration::FlushRouteTables { first, last, .. } => {
            let in_range = |id: RouteTableId| id != RouteTableId::MAIN && id >= first && id <= last;
            let tables: Vec<RouteTableId> = device
                .config
                .rib
                .tables()
                .map(|(id, _)| id)
                .filter(|id| in_range(*id))
                .collect();
            for id in tables {
                device.config.rib.drop_table(id);
            }
            let rules: Vec<(u32, RouteTableId)> = device
                .config
                .rib
                .rules()
                .iter()
                .filter(|r| in_range(r.table))
                .map(|r| (r.priority, r.table))
                .collect();
            for (priority, table) in rules {
                device.config.rib.remove_rule(priority, table);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimDuration;
    use crate::config::TunnelConfig;
    use crate::device::{Device, DeviceRole, PortId};
    use crate::link::LinkProperties;
    use std::net::Ipv4Addr;

    #[test]
    fn plans_stay_sorted_and_flaps_expand() {
        let mut plan = FaultPlan::new();
        plan.push(SimTime::from_millis(50), FaultKind::LinkCut(LinkId(1)));
        plan.push(SimTime::from_millis(10), FaultKind::LinkCut(LinkId(0)));
        let plan = plan.flap(
            LinkId(2),
            SimTime::from_millis(20),
            SimDuration::from_millis(5),
            SimDuration::from_millis(5),
            2,
        );
        let times: Vec<u64> = plan.events.iter().map(|e| e.at.as_nanos()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
        assert_eq!(times.len(), 6); // 2 cuts + 2 flap cycles x 2 events
    }

    #[test]
    fn injector_applies_events_as_time_passes() {
        let mut net = Network::new();
        let mut h1 = Device::new("h1", DeviceRole::Host, 1);
        h1.config.assign_address(0, "10.0.0.1/24".parse().unwrap());
        let mut h2 = Device::new("h2", DeviceRole::Host, 1);
        h2.config.assign_address(0, "10.0.0.2/24".parse().unwrap());
        let h1 = net.add_device(h1);
        let h2 = net.add_device(h2);
        let link = net
            .connect((h1, PortId(0)), (h2, PortId(0)), LinkProperties::lan())
            .unwrap();

        let mut plan = FaultPlan::new();
        plan.push(SimTime::from_millis(1), FaultKind::LinkCut(link));
        let mut injector = FaultInjector::new(plan);
        assert_eq!(injector.apply_due(&mut net), 0, "not due yet");

        net.send_udp(h1, "10.0.0.2".parse().unwrap(), 1, 2, b"pre")
            .unwrap();
        net.run_to_quiescence(1000);
        assert_eq!(net.device_mut(h2).unwrap().take_delivered().len(), 1);

        net.run_for(SimDuration::from_millis(2));
        assert_eq!(injector.apply_due(&mut net), 1);
        net.send_udp(h1, "10.0.0.2".parse().unwrap(), 1, 2, b"post")
            .unwrap();
        net.run_to_quiescence(1000);
        assert!(net.device_mut(h2).unwrap().take_delivered().is_empty());
        assert_eq!(injector.pending(), 0);
    }

    #[test]
    fn misconfigurations_mutate_device_state() {
        let mut net = Network::new();
        let mut r = Device::new("r", DeviceRole::Router, 1);
        let mut tun = TunnelConfig::gre(
            "gre1",
            "1.1.1.1".parse().unwrap(),
            "2.2.2.2".parse().unwrap(),
        );
        tun.ikey = Some(1001);
        r.config.add_tunnel(tun);
        r.config.rib.add_rule(crate::route::PolicyRule {
            priority: 100,
            selector: crate::route::RuleSelector::All,
            table: RouteTableId(200),
        });
        let r = net.add_device(r);

        apply_fault(
            &mut net,
            FaultKind::Misconfigure(Misconfiguration::CorruptGreKey {
                device: r,
                delta: 7,
            }),
        );
        assert_eq!(
            net.device(r).unwrap().config.tunnel(1).unwrap().ikey,
            Some(1008)
        );

        apply_fault(
            &mut net,
            FaultKind::Misconfigure(Misconfiguration::FlushPolicyRouting { device: r }),
        );
        assert!(net.device(r).unwrap().config.rib.rules().is_empty());
    }

    #[test]
    fn a_corrupted_gre_key_leaves_the_local_addresses_alone() {
        let mut net = Network::new();
        let mut r = Device::new("r", DeviceRole::Router, 1);
        r.config.assign_address(0, "10.0.0.1/24".parse().unwrap());
        for (k, address) in [
            (1, Some("192.168.3.1/30")),
            (2, None),
            (3, Some("192.168.3.5/30")),
        ] {
            let mut tun = TunnelConfig::gre(
                format!("gre{k}"),
                "1.1.1.1".parse().unwrap(),
                Ipv4Addr::new(2, 2, 2, k),
            );
            tun.ikey = (k != 2).then_some(1000 + u32::from(k));
            tun.address = address.map(|a| a.parse().unwrap());
            r.config.add_tunnel(tun);
        }
        let r = net.add_device(r);
        let probes: Vec<Ipv4Addr> = [
            "10.0.0.1",
            "10.0.0.2",
            "192.168.3.1",
            "192.168.3.2",
            "192.168.3.5",
        ]
        .iter()
        .map(|a| a.parse().unwrap())
        .collect();
        let local = |net: &Network| -> Vec<bool> {
            let config = &net.device(r).unwrap().config;
            probes.iter().map(|a| config.is_local_address(*a)).collect()
        };
        let before = local(&net);
        assert_eq!(before, [true, false, true, false, true]);

        apply_fault(
            &mut net,
            FaultKind::Misconfigure(Misconfiguration::CorruptGreKey {
                device: r,
                delta: 7,
            }),
        );
        let config = &net.device(r).unwrap().config;
        let ikeys: Vec<Option<u32>> = config.tunnels().map(|t| t.ikey).collect();
        assert_eq!(ikeys, [Some(1008), None, Some(1010)], "the fault did land");
        assert_eq!(local(&net), before);
    }

    #[test]
    fn flushing_a_table_range_only_hits_that_range() {
        use crate::route::{PolicyRule, Route, RouteTarget, RuleSelector};
        let mut net = Network::new();
        let mut r = Device::new("r", DeviceRole::Router, 1);
        // Two "goals": tables 1000..1003 and 1004..1007, one rule each,
        // plus a main-table route that must survive any flush.
        r.config.rib.add_main(Route {
            dest: "10.0.0.0/24".parse().unwrap(),
            target: RouteTarget::Port { port: 0, via: None },
        });
        for (table, priority) in [(1000u32, 100u32), (1004, 104)] {
            r.config.rib.table_mut(RouteTableId(table)).add(Route {
                dest: "10.9.0.0/24".parse().unwrap(),
                target: RouteTarget::Port { port: 0, via: None },
            });
            r.config.rib.add_rule(PolicyRule {
                priority,
                selector: RuleSelector::All,
                table: RouteTableId(table),
            });
        }
        let r = net.add_device(r);

        apply_fault(
            &mut net,
            FaultKind::Misconfigure(Misconfiguration::FlushRouteTables {
                device: r,
                first: RouteTableId(1000),
                last: RouteTableId(1003),
            }),
        );
        let rib = &net.device(r).unwrap().config.rib;
        assert!(rib.table(RouteTableId(1000)).is_none(), "range flushed");
        assert!(rib.table(RouteTableId(1004)).is_some(), "sibling survives");
        assert_eq!(rib.rules().len(), 1);
        assert_eq!(rib.rules()[0].table, RouteTableId(1004));
        assert!(
            rib.table(RouteTableId::MAIN).is_some(),
            "main is never dropped"
        );
    }
}

//! Flow-window attribution against an oracle that lives here.
//!
//! `Network` samples a device's tallies only when a window's traffic first
//! reaches it.  These tests take their own whole-fleet before/after diff of
//! `originated / forwarded / local_delivered / total_drops()` around every
//! piece of traffic and require each device's `stats.flows` to equal exactly
//! what those diffs credit — on the fan-out chain and on the 2×3 mesh, with
//! delivered, dropped and black-holed probes, windows reopened without a
//! close, empty windows and traffic outside any window, interleaved over
//! several tags.

use netsim::device::{DeviceId, PortId};
use netsim::ipv4::Ipv4Cidr;
use netsim::route::{Route, RouteTarget};
use netsim::stats::FlowCounters;
use netsim::topology::{fanout_pair_hosts, isp_chain_fanout, isp_mesh_fanout};
use netsim::Network;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

type Tallies = BTreeMap<DeviceId, FlowCounters>;
type Expected = BTreeMap<DeviceId, BTreeMap<u64, FlowCounters>>;

/// The four attributed tallies of every device in the network.
fn fleet_tallies(net: &Network) -> Tallies {
    net.devices()
        .map(|d| {
            let sample = FlowCounters {
                originated: d.stats.originated,
                forwarded: d.stats.forwarded,
                local_delivered: d.stats.local_delivered,
                drops: d.stats.total_drops(),
            };
            (d.id, sample)
        })
        .collect()
}

/// Credit to `tag` whatever moved on any device between two samples.
fn credit(expected: &mut Expected, tag: u64, before: &Tallies, after: &Tallies) {
    for (id, now) in after {
        let was = before[id];
        let delta = FlowCounters {
            originated: now.originated - was.originated,
            forwarded: now.forwarded - was.forwarded,
            local_delivered: now.local_delivered - was.local_delivered,
            drops: now.drops - was.drops,
        };
        if !delta.is_empty() {
            expected
                .entry(*id)
                .or_default()
                .entry(tag)
                .or_default()
                .absorb(&delta);
        }
    }
}

/// Static route on `at`: `dest` leaves through the port facing `next`, via
/// `next`'s address on that link.
fn route_via(net: &mut Network, at: DeviceId, next: DeviceId, dest: Ipv4Cidr) {
    let link = net.link_between(at, next).expect("adjacent devices");
    let link = net.link(link).unwrap();
    let port_of =
        |d: DeviceId| -> PortId { link.endpoints.iter().find(|e| e.device == d).unwrap().port };
    let (out, facing) = (port_of(at), port_of(next));
    let via = net.device(next).unwrap().config.address_on_port(facing.0);
    let via = via.expect("the next hop has an address on the link").addr;
    net.device_mut(at).unwrap().config.rib.add_main(Route {
        dest,
        target: RouteTarget::Port {
            port: out.0,
            via: Some(via),
        },
    });
}

/// A testbed with plain forward routes for every fan-out pair, and the
/// places the scenarios break.
struct Bed {
    net: Network,
    pairs: Vec<(DeviceId, DeviceId)>,
    /// Two adjacent ISP routers on the forward path: the link to cut.
    cut: (DeviceId, DeviceId),
    /// An ISP router on the forward path to power off.
    crash: DeviceId,
}

/// Route all customer space (10.0.0.0/8) along `routers`, site 1 to site 2.
fn forward_routes(net: &mut Network, routers: &[DeviceId]) {
    for hop in routers.windows(2) {
        route_via(net, hop[0], hop[1], "10.0.0.0/8".parse().unwrap());
    }
}

fn chain_bed() -> Bed {
    let t = isp_chain_fanout(4, 3);
    let mut net = t.net;
    let mut routers = t.core.clone();
    routers.push(t.customer2);
    forward_routes(&mut net, &routers);
    Bed {
        net,
        pairs: t.fanout_pairs,
        cut: (t.core[1], t.core[2]),
        crash: t.core[2],
    }
}

fn mesh_bed() -> Bed {
    let t = isp_mesh_fanout(3, 3);
    let mut net = t.net;
    let mut routers = vec![t.ingress];
    routers.extend(&t.upper);
    routers.extend([t.egress, t.customer2]);
    forward_routes(&mut net, &routers);
    Bed {
        net,
        pairs: t.fanout_pairs,
        cut: (t.upper[0], t.upper[1]),
        crash: t.upper[2],
    }
}

impl Bed {
    /// One datagram from pair `k`'s site-1 host to `dst`; did the pair's
    /// site-2 host receive it?
    fn send(&mut self, k: usize, dst: Ipv4Addr) -> bool {
        let (src, sink) = self.pairs[k];
        self.net.send_udp(src, dst, 40000, 7000, b"probe").unwrap();
        self.net.run_to_quiescence(100_000);
        !self
            .net
            .device_mut(sink)
            .unwrap()
            .take_delivered()
            .is_empty()
    }

    fn probe(&mut self, k: usize) -> bool {
        self.send(k, fanout_pair_hosts(k).1)
    }

    /// Run `traffic` inside a window tagged `tag`, crediting the oracle's
    /// own diff to the tag.
    fn windowed<R>(
        &mut self,
        expected: &mut Expected,
        tag: u64,
        traffic: impl FnOnce(&mut Bed) -> R,
    ) -> R {
        let before = fleet_tallies(&self.net);
        self.net.begin_flow_window(tag);
        let out = traffic(self);
        assert_eq!(self.net.end_flow_window(), Some(tag));
        credit(expected, tag, &before, &fleet_tallies(&self.net));
        out
    }
}

fn attribution_matches_the_oracle(mut bed: Bed) {
    let mut expected = Expected::new();

    // Delivered probes (the first one resolves ARP along the way).
    assert!(bed.windowed(&mut expected, 1, |b| b.probe(0)));
    assert!(bed.windowed(&mut expected, 2, |b| b.probe(1)));

    // Traffic outside any window is nobody's.
    assert!(bed.probe(2));
    assert_eq!(bed.net.end_flow_window(), None);

    // A probe that dies on a cut link: only the devices before the cut move.
    let cut = bed.net.link_between(bed.cut.0, bed.cut.1).unwrap();
    bed.net.set_link_enabled(cut, false);
    assert!(!bed.windowed(&mut expected, 2, |b| b.probe(1)));
    bed.net.set_link_enabled(cut, true);

    // A probe into a powered-off router.
    let crash = bed.crash;
    bed.net.set_device_up(crash, false);
    assert!(!bed.windowed(&mut expected, 3, |b| b.probe(2)));
    bed.net.set_device_up(crash, true);

    // A probe an ISP router drops for want of a route.
    let unroutable = Ipv4Addr::new(172, 16, 0, 9);
    assert!(!bed.windowed(&mut expected, 3, |b| b.send(2, unroutable)));

    // `begin` twice without `end`: the second closes the first.
    let before = fleet_tallies(&bed.net);
    bed.net.begin_flow_window(4);
    assert!(bed.probe(0));
    let between = fleet_tallies(&bed.net);
    bed.net.begin_flow_window(5);
    assert!(bed.probe(1));
    assert_eq!(bed.net.end_flow_window(), Some(5));
    credit(&mut expected, 4, &before, &between);
    credit(&mut expected, 5, &between, &fleet_tallies(&bed.net));

    // A window with no traffic credits nothing.
    bed.windowed(&mut expected, 6, |_| ());

    // A tag seen before keeps accumulating.
    assert!(bed.windowed(&mut expected, 1, |b| b.probe(0)));

    for device in bed.net.devices() {
        let want = expected.remove(&device.id).unwrap_or_default();
        assert_eq!(device.stats.flows, want, "flows of {}", device.name);
        assert!(!want.contains_key(&6), "the empty window left no entry");
    }

    // Forgetting a tag removes it everywhere and nothing else.
    bed.net.forget_flow(1);
    for device in bed.net.devices() {
        assert!(!device.stats.flows.contains_key(&1));
    }
    let (src, _) = bed.pairs[1];
    assert!(bed.net.flow_counters(src, 2).originated > 0);
}

#[test]
fn chain_flow_attribution_matches_a_whole_fleet_diff() {
    attribution_matches_the_oracle(chain_bed());
}

#[test]
fn mesh_flow_attribution_matches_a_whole_fleet_diff() {
    attribution_matches_the_oracle(mesh_bed());
}

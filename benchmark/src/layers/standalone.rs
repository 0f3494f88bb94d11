//! Stand-alone layer rows: the path finder and script generator, the
//! management channel and its codec primitives, called directly on
//! topologies of the shape the workloads use.

use super::Sweep;
use crate::fixtures::{discovered_chain, mesh_limits, CHAIN_N, MESH_K};
use conman_core::nm::{script, Exclusion, SearchScratch};
use conman_core::WireCodec;
use conman_modules::{managed_chain_with, managed_mesh_fanout};
use mgmt_channel::codec::{Reader, Writer};
use mgmt_channel::{
    InBandChannel, ManagementChannel, MessageCategory, MgmtMessage, OutOfBandChannel,
};
use std::collections::BTreeSet;

pub fn rows(s: &mut Sweep, _seed: u64) {
    nm_rows(s);
    channel_rows(s);
}

/// `conman-core::nm`: graph build, path search (plain on the chain, with
/// one link excluded on the mesh), script generation and a whole
/// `plan_goal`.
fn nm_rows(s: &mut Sweep) {
    let mut t = discovered_chain(WireCodec::Binary);
    let goal = t.vpn_goal();
    let limits = t.mn.goals.limits;
    let nm = &t.mn.nm;
    let none = BTreeSet::new();

    let graph_us = s.median_us("nm.build_graph", 20, || drop(nm.build_graph()));
    let graph = nm.build_graph();
    let mut scratch = SearchScratch::default();
    let find_us = s.median_us("nm.pathfinder_find", 20, || {
        drop(nm.find_paths_avoiding_in(&graph, &goal, &none, limits, &mut scratch))
    });
    let paths = nm.find_paths_avoiding_in(&graph, &goal, &none, limits, &mut scratch);
    let path = nm.choose_path(&paths).expect("a chain path exists").clone();
    let generate_us = s.median_us("nm.script_generate", 50, || {
        drop(script::generate_with_base(nm, &path, &goal, 0))
    });
    let primitives = script::generate_with_base(nm, &path, &goal, 0).primitive_count();

    let id = t.mn.submit(goal);
    let mn = &t.mn;
    let plan_us = s.median_us("nm.plan_goal", 20, || drop(mn.plan_goal(id)));
    s.check(mn.plan_goal(id).is_ok(), || "plan_goal failed".to_string());

    // The mesh arm: the search a link-cut repair runs, with the first core
    // hop of the chosen path excluded.
    let mut mesh = managed_mesh_fanout(MESH_K, 1);
    mesh.discover();
    let goal = mesh.fanout_goal(0);
    let nm = &mesh.mn.nm;
    let graph = nm.build_graph();
    let all = nm.find_paths_avoiding_in(&graph, &goal, &none, mesh_limits(MESH_K), &mut scratch);
    let chosen = nm.choose_path(&all).expect("a mesh path exists");
    let core: BTreeSet<_> = mesh.upper.iter().chain(&mesh.lower).copied().collect();
    let devices = chosen.devices();
    let hop = devices
        .windows(2)
        .find(|w| core.contains(&w[0]) && core.contains(&w[1]))
        .expect("the mesh path crosses the core");
    let excluded: BTreeSet<Exclusion> = [Exclusion::link(hop[0], hop[1])].into();
    let find_excl_us = s.median_us("nm.pathfinder_find_excl", 20, || {
        drop(nm.find_paths_avoiding_in(&graph, &goal, &excluded, mesh_limits(MESH_K), &mut scratch))
    });
    let rerouted =
        nm.find_paths_avoiding_in(&graph, &goal, &excluded, mesh_limits(MESH_K), &mut scratch);
    s.check(!rerouted.is_empty(), || {
        "no mesh path avoids the excluded link".to_string()
    });

    s.row("nm.graph_build_us", graph_us);
    s.row("nm.pathfinder_find_us", find_us);
    s.row("nm.pathfinder_find_excl_us", find_excl_us);
    s.row("nm.pathfinder_paths", paths.len() as f64);
    s.row("nm.script_generate_us", generate_us);
    s.row("nm.script_primitives_per_goal", primitives as f64);
    s.row("nm.plan_goal_us", plan_us);
}

/// Send `reps` messages over `channel`, one after another: queue it, let
/// it propagate, drain it at the receiver.  Returns how many arrived.
fn transit<C: ManagementChannel>(
    channel: &mut C,
    net: &mut netsim::network::Network,
    from: netsim::device::DeviceId,
    to: netsim::device::DeviceId,
    payload: &[u8],
    reps: usize,
) -> usize {
    (0..reps)
        .map(|_| {
            let msg = MgmtMessage::new(from, to, MessageCategory::Command, payload.to_vec());
            channel.send(net, msg);
            channel.run(net);
            channel.recv(net, to).len()
        })
        .sum()
}

/// `mgmt-channel`: one message's transit over each channel variant at the
/// two payload classes a pass sends (a 256 B command, a 1 MB `StageBatch`),
/// and the binary codec's raw write and read rates.
fn channel_rows(s: &mut Sweep) {
    const SMALL: usize = 256;
    const LARGE: usize = 1 << 20;
    let small = vec![0x5a; SMALL];
    let large = vec![0x5a; LARGE];

    let mut oob = managed_chain_with(CHAIN_N, OutOfBandChannel::new());
    let (station, far) = (oob.mn.nm_host(), *oob.core.last().expect("core routers"));
    let mn = &mut oob.mn;
    let (a, oob_small_us) = s.timed("channel.oob_small", || {
        transit(&mut mn.channel, &mut mn.net, station, far, &small, 2000)
    });
    let (b, oob_large_us) = s.timed("channel.oob_large", || {
        transit(&mut mn.channel, &mut mn.net, station, far, &large, 50)
    });
    let mut inband = managed_chain_with(CHAIN_N, InBandChannel::new());
    let (station, far) = (
        inband.mn.nm_host(),
        *inband.core.last().expect("core routers"),
    );
    let mn = &mut inband.mn;
    let (c, inband_small_us) = s.timed("channel.inband_small", || {
        transit(&mut mn.channel, &mut mn.net, station, far, &small, 200)
    });
    s.check(a == 2000 && b == 50 && c == 200, || {
        format!("channel delivered {a}/2000, {b}/50, {c}/200 messages")
    });

    // The codec primitives the batch messages are built from: u64s and
    // length-prefixed 1 KB slices, 8 MB in all.
    const CHUNKS: usize = 8 * 1024;
    let chunk = vec![0xa5u8; 1024];
    let mut encoded = Vec::new();
    let write_us = s.median_us("channel.codec_write", 5, || {
        let mut w = Writer::with_tag(0x81);
        for i in 0..CHUNKS {
            w.put_u64(i as u64);
            w.put_bytes(&chunk);
        }
        encoded = w.finish();
    });
    let mut read_back = 0;
    let read_us = s.median_us("channel.codec_read", 5, || {
        let mut r = Reader::new(std::hint::black_box(&encoded));
        let _tag = r.u8();
        read_back = 0;
        while let (Some(_), Some(bytes)) = (r.u64(), r.bytes()) {
            read_back += std::hint::black_box(bytes).len();
        }
    });
    s.check(read_back == CHUNKS * chunk.len(), || {
        format!("codec read back {read_back} bytes")
    });
    let mb = encoded.len() as f64 / (1 << 20) as f64;
    s.row("channel.oob_small_us", oob_small_us / 2000.0);
    s.row("channel.oob_large_us", oob_large_us / 50.0);
    s.row("channel.inband_small_us", inband_small_us / 200.0);
    s.row("channel.codec_write_mb_s", mb / (write_us / 1e6));
    s.row("channel.codec_read_mb_s", mb / (read_us / 1e6));
}

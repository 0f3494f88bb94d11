//! What a quiet tick asks of the heap, pinned.
//!
//! This test binary installs conman-bench's counting allocator, which
//! counts the heap calls of every thread: so it holds exactly one test.
//! A converged tick sends no management message, so nearly all of its work
//! is the simulator carrying the health probes, and a forwarded frame costs
//! one heap call: the `Arc<[u8]>` its link, the trace ring and its arrival
//! share.  `experiments loop` prints the same count as `quiet-allocs`.

use conman::core::runtime::{ControlLoop, GoalEndpoints, LoopConfig};
use conman::modules::managed_fanout_chain;
use conman_bench::diagnosis::chain_limits;
use conman_bench::held::{allocs, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

/// One quiet tick over a converged 64-goal fan-out chain makes at most
/// 1.19 heap calls per frame delivered (≈ 1.08: one per frame, and per
/// probe its delivered payload).  It made ≈ 1.16 while each probe took the
/// destination's delivery list, so the next delivery grew a new one, and
/// ≈ 6.7 while every hop copied the frame into a decoded Ethernet frame and
/// IPv4 packet, encoded both again and collected the transmissions in a
/// fresh `Vec`.
#[test]
fn a_quiet_tick_allocates_about_once_per_delivered_frame() {
    let (n, goals) = (10, 64);
    let mut t = managed_fanout_chain(n, goals);
    t.discover();
    t.mn.goals.limits = chain_limits(n);
    let mut cl = ControlLoop::new(&t.mn, LoopConfig::default());
    for k in 0..goals {
        let (src, dst, dst_ip) = t.fanout_probe(k);
        let id = t.mn.submit(t.fanout_goal(k));
        cl.track(id, GoalEndpoints { src, dst, dst_ip });
    }
    assert!(cl.run_until_converged(&mut t.mn, 16).converged);
    // The first quiet tick grows the reused buffers to a tick's size.
    cl.tick(&mut t.mn);

    let before = allocs();
    let tick = cl.tick(&mut t.mn);
    let calls = allocs().since(before).calls;
    assert_eq!(tick.nm_sent, 0, "the tick is quiet");
    assert!(tick.frames > 0 && calls > 0, "the allocator is installed");
    let per_frame = calls as f64 / tick.frames as f64;
    assert!(
        per_frame <= 1.19,
        "{calls} heap calls for {} frames ({per_frame:.2} a frame)",
        tick.frames
    );
}

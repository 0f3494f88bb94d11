//! The autonomic control loop, end to end: declare goals as *events*, let
//! the event-driven NM runtime converge them, verify the management plane
//! goes silent, then break the network and watch the loop detect, localise
//! (from per-goal flow deltas, under the other goals' live traffic) and
//! repair — with no operator call after setup.
//!
//! ```text
//! cargo run --example autonomic
//! ```

use conman::core::nm::PathFinderLimits;
use conman::core::runtime::{ControlLoop, GoalEndpoints, LoopConfig};
use conman::diagnose::AutonomicClient;
use conman::modules::managed_fanout_chain;
use conman::netsim::device::DeviceId;
use conman::netsim::fault::{apply_fault, FaultKind, Misconfiguration};
use conman::obs::Blame;

fn main() {
    // A 6-router ISP chain with four customer pairs, each backed by real
    // hosts — every goal's health is judged from its own delivered
    // traffic.
    let n = 6;
    let goals = 4;
    let mut t = managed_fanout_chain(n, goals);
    t.discover();
    t.mn.goals.limits = PathFinderLimits {
        max_steps: 3 * n + 16,
        max_paths: 32,
    };

    // The loop: 100ms ticks, telemetry every tick, two probes per goal per
    // round, any loss degrades.  The conman-diagnose Diagnoser/Healer pair
    // plugs in as the loop's diagnosis client.
    let mut cl = ControlLoop::new(&t.mn, LoopConfig::default())
        .with_client(Box::new(AutonomicClient::new(2)));

    // Operator intent arrives as events on the loop's stream.
    for k in 0..goals {
        let (src, dst, dst_ip) = t.fanout_probe(k);
        cl.submit(t.fanout_goal(k), Some(GoalEndpoints { src, dst, dst_ip }));
    }
    let setup = cl.run_until_converged(&mut t.mn, 10);
    println!(
        "setup: {} goals converged in {} tick(s)",
        goals,
        setup.ticks.len()
    );
    for rec in t.mn.goals.iter() {
        let label = rec
            .applied()
            .map(|a| a.path.technology_label())
            .unwrap_or_default();
        println!("  {}: {} over {}", rec.id, rec.status, label);
    }

    // A converged loop is silent: health runs on customer traffic, so
    // quiescent ticks send zero management messages.
    for _ in 0..3 {
        let tick = cl.tick(&mut t.mn);
        println!(
            "tick {:>2} @ {}: quiescent={} (NM sent {}, received {})",
            tick.tick,
            tick.at,
            tick.quiescent(),
            tick.nm_sent,
            tick.nm_received
        );
    }

    // Disaster: the mid-chain router loses its dynamic state — label maps
    // and policy tables — as after a control-plane reload.  Nobody calls
    // the NM.
    let victim = t.core[n / 2];
    println!(
        "\nfault injected: {} lost its label and policy-routing state",
        t.mn.nm.device_alias(victim)
    );
    apply_fault(
        &mut t.mn.net,
        FaultKind::Misconfigure(Misconfiguration::ClearMplsState { device: victim }),
    );
    apply_fault(
        &mut t.mn.net,
        FaultKind::Misconfigure(Misconfiguration::FlushPolicyRouting { device: victim }),
    );

    // The loop detects the degradation on its next health round, localises
    // it per goal from flow-attributed counter deltas, and repairs the
    // whole fleet in one batched pass.
    let run = cl.run_until_converged(&mut t.mn, 8);
    for tick in &run.ticks {
        if tick.degraded.is_empty() && tick.repair.is_none() {
            println!("tick {:>2}: quiescent again", tick.tick);
            continue;
        }
        println!(
            "tick {:>2}: degraded={:?} (epoch {})",
            tick.tick, tick.degraded, tick.epoch
        );
        for (goal, diagnosis) in &tick.diagnosed {
            let alias = |device| t.mn.nm.device_alias(DeviceId::from_raw(device));
            let suspect = match diagnosis.prime {
                Some((Blame::Module { device, module }, pct)) => {
                    format!("module m{module} on {} ({pct}%)", alias(device))
                }
                Some((Blame::Link { a, b }, pct)) => {
                    format!("link {}-{} ({pct}%)", alias(a), alias(b))
                }
                Some((Blame::Device { device }, pct)) => format!("{} ({pct}%)", alias(device)),
                Some((Blame::Unlocated, pct)) => format!("outside the managed path ({pct}%)"),
                None => "no suspect".to_string(),
            };
            println!("          {goal} diagnosis: {suspect}");
        }
        if let Some(repair) = &tick.repair {
            println!(
                "          repair pass: {} active / {} transaction(s) / {} NM msgs",
                repair.active(),
                repair.transactions,
                tick.nm_sent
            );
        }
    }
    println!(
        "\ndetected on tick {:?}, repaired on tick {:?}, zero operator calls",
        run.first_detection(),
        run.first_repair()
    );
    for rec in t.mn.goals.iter() {
        let label = rec
            .applied()
            .map(|a| a.path.technology_label())
            .unwrap_or_default();
        println!("  {}: {} over {}", rec.id, rec.status, label);
    }
    let all_ok = (0..goals).all(|k| t.probe_pair(k));
    println!("all customer pairs carry traffic again: {all_ok}");
    assert_eq!(t.mn.audit(), [], "the devices hold what the goals claim");
    println!("device audit: every device holds exactly what the goals claim");
}

//! The loop side of the sweep: netsim under the health probes, quiet ticks
//! and their drift, the flight recorder's overhead, the static analyzer,
//! the repair episodes, a stand-alone diagnosis, and the churn split.

use super::Sweep;
use crate::fixtures::{
    converged_chain_fleet, converged_mesh_fleet, rss_kb, Chain, FanoutBed, LoopFleet,
};
use crate::rng::Rng;
use crate::stats;
use crate::workloads::{drift, fleet_churn, loop_quiet, loop_repair};
use conman_core::nm::script;
use conman_core::runtime::LoopClient;
use conman_diagnose::{AutonomicClient, Diagnoser, Healer};
use conman_obs::{Recorder, TraceKind};

/// Ticks of the sweep's quiet 256-goal fleet: one fleet's life in the
/// `loop_quiet` workload.
const QUIET_TICKS: usize = loop_quiet::TICKS_PER_FLEET;
/// Interleaved recorder-off / recorder-on tick pairs.
const OBS_PAIRS: usize = 50;
const OBS_GOALS: usize = 64;
/// Churn operations of the sweep, after its warm-ups.
const CHURN_OPS: usize = 32;
const CHURN_WARMUP: usize = 4;

pub fn rows(s: &mut Sweep, seed: u64) {
    churn_rows(s, seed);
    small_fleet_rows(s, seed);
    repair_rows(s, seed);
    diagnose_rows(s, seed);
}

/// `fleet_churn` split into its two public calls.
fn churn_rows(s: &mut Sweep, seed: u64) {
    let (mut fleet, _) = fleet_churn::ChurnFleet::converge(seed, &mut s.meter);
    let (mut withdraw, mut configure, mut whole) = (Vec::new(), Vec::new(), Vec::new());
    let mut rss_start = 0;
    for op in 0..CHURN_WARMUP + CHURN_OPS {
        if op == CHURN_WARMUP {
            rss_start = rss_kb().1;
        }
        s.spans.next_op();
        let done = {
            let Sweep { spans, meter, .. } = s;
            spans.scope("churn.op", || fleet.op(op, meter))
        };
        s.check(done.verdict.is_ok(), || done.verdict.clone().unwrap_err());
        if op >= CHURN_WARMUP {
            withdraw.push(done.withdraw.ms);
            configure.push(done.configure.ms);
            whole.push(done.withdraw.ms + done.configure.ms);
        }
    }
    let rss_growth = rss_kb().1.saturating_sub(rss_start) as f64 / CHURN_OPS as f64;
    let median = |v: &[f64]| stats::median(v).expect("churn ops ran");
    s.row("churn.withdraw_ms", median(&withdraw));
    s.row("churn.configure_ms", median(&configure));
    s.row("churn.drift", drift(&whole).expect("at least four ops"));
    s.row("churn.rss_growth_kb_per_op", rss_growth);
}

/// One tick's time in microseconds; the tick must stay quiet.
fn quiet_tick_us(s: &mut Sweep, fleet: &mut LoopFleet<Chain>, name: &'static str) -> f64 {
    s.spans.next_op();
    let (tick, us) = s.timed(name, || fleet.cl.tick(&mut fleet.t.mn));
    s.check(tick.quiescent() && tick.degraded.is_empty(), || {
        format!("{name}: a quiet tick sent {} messages", tick.nm_sent)
    });
    us
}

/// Two identical 64-goal fleets, one with the flight recorder attached:
/// interleaved tick pairs give the recorder's overhead as a median of
/// per-pair ratios; the recorder-off fleet also serves the probe rows, the
/// recorder-on fleet's journal the conformance checker.
fn small_fleet_rows(s: &mut Sweep, seed: u64) {
    let pairs = || Rng::new(seed, 3).permutation(OBS_GOALS);
    let mut off = converged_chain_fleet(pairs());
    let mut on = {
        // Attach the recorder after convergence so both fleets converge the
        // same way and only the measured ticks are journalled.
        let mut fleet = converged_chain_fleet(pairs());
        fleet.t.mn.set_recorder(Recorder::new());
        fleet
    };
    let (mut off_us, mut ratios) = (Vec::new(), Vec::new());
    for _ in 0..OBS_PAIRS {
        let a = quiet_tick_us(s, &mut off, "loop.tick.64.recorder_off");
        let b = quiet_tick_us(s, &mut on, "loop.tick.64.recorder_on");
        off_us.push(a);
        ratios.push(b / a);
    }
    let (q1, ratio, q3) = stats::quartiles(&ratios).expect("pairs ran");
    let events = on.t.mn.recorder.journal_events();
    s.check(!events.is_empty(), || {
        "the attached recorder journalled nothing".to_string()
    });
    s.row(
        "loop.tick_us.64",
        stats::median(&off_us).expect("ticks ran"),
    );
    s.row("obs.tick_overhead_ratio", ratio);
    s.row("obs.tick_overhead_iqr", q3 - q1);
    s.row(
        "obs.journal_events_per_tick",
        events.len() as f64 / OBS_PAIRS as f64,
    );

    let check_us = s.median_us("analyze.check_journal", 5, || {
        drop(conman_analyze::check_journal(&events))
    });
    let violations = conman_analyze::check_journal(&events);
    s.check(violations.is_empty(), || {
        format!("journal fails conformance: {violations:?}")
    });
    s.row(
        "analyze.check_journal_us_per_kevent",
        check_us / (events.len() as f64 / 1e3),
    );

    // The recorder alone: one free-form event.
    const EVENTS: usize = 100_000;
    let recorder = Recorder::new();
    let ((), events_us) = s.timed("obs.event", || {
        for i in 0..EVENTS {
            recorder.event(
                i as u64,
                TraceKind::Note {
                    text: String::new(),
                },
            );
        }
    });
    s.row("obs.event_ns", events_us * 1e3 / EVENTS as f64);

    netsim_rows(s, &mut off);
    verifier_rows(s, &mut off);
}

/// netsim under one health probe, end to end through the fleet's tunnels.
fn netsim_rows(s: &mut Sweep, fleet: &mut LoopFleet<Chain>) {
    let frames_before = fleet.t.mn.net.frames_delivered();
    let probes = 3 * OBS_GOALS;
    let mut delivered = 0;
    let mut k = 0;
    let probe_us = s.median_us("netsim.probe", probes, || {
        delivered += usize::from(fleet.t.probe_goal(k % OBS_GOALS));
        k += 1;
    });
    s.check(delivered == probes, || {
        format!("{delivered} of {probes} probes delivered")
    });
    let frames = fleet.t.mn.net.frames_delivered() - frames_before;
    s.row("netsim.probe_us", probe_us);
    s.row("netsim.frames_per_probe", frames as f64 / probes as f64);
}

/// The static verifier on a fleet's worth of dry-run plans, numbered in
/// disjoint pipe blocks the way a pass numbers them.
fn verifier_rows(s: &mut Sweep, fleet: &mut LoopFleet<Chain>) {
    let mn = &mut fleet.t.mn;
    let plans: Vec<_> = fleet
        .ids
        .iter()
        .map(|id| {
            let path = mn
                .goals
                .get(*id)
                .and_then(|r| r.applied())
                .expect("applied");
            let path = path.path.clone();
            let plan = mn
                .plan_for_path(*id, &path)
                .expect("plan for the applied path");
            mn.goals.take_pipe_block(script::slot_count(&path));
            plan
        })
        .collect();
    let verify_us = s.median_us("analyze.verify_plans", 5, || drop(mn.verify_plans(&plans)));
    s.row(
        "analyze.verify_plans_us_per_goal",
        verify_us / plans.len() as f64,
    );
}

/// The quiet 256-goal fleet: early tick cost, drift, memory and packet-trace
/// growth per tick — from the real, uncleared packet trace.
pub fn quiet_rows(s: &mut Sweep, seed: u64) {
    let (mut fleet, _) = loop_quiet::converge(seed, &mut s.meter);
    let rss_start = rss_kb().1;
    let trace_start = fleet.t.mn.net.trace().len();
    let ticks: Vec<f64> = (0..QUIET_TICKS)
        .map(|_| quiet_tick_us(s, &mut fleet, "loop.tick.256"))
        .collect();
    let rss_growth = rss_kb().1.saturating_sub(rss_start) as f64 / QUIET_TICKS as f64;
    let trace_growth = (fleet.t.mn.net.trace().len() - trace_start) as f64 / QUIET_TICKS as f64;
    s.row(
        "loop.tick_us.256",
        stats::median(&ticks[..50]).expect("ticks ran"),
    );
    s.row("loop.tick_drift", drift(&ticks).expect("ticks ran"));
    s.row("loop.rss_growth_kb_per_tick", rss_growth);
    s.row("netsim.trace_entries_per_tick", trace_growth);
}

/// One episode of each repair scenario on fresh 128-goal fleets.
fn repair_rows(s: &mut Sweep, seed: u64) {
    let mut order = Rng::new(seed, 4);
    let goals = loop_repair::GOALS;
    let mut episodes = Vec::new();

    let mut chain = converged_chain_fleet(order.permutation(goals));
    s.spans.next_op();
    let state_loss = {
        let Sweep { spans, meter, .. } = s;
        let which = order.below(loop_repair::FAULTABLE);
        spans.scope("loop.repair.core_state_loss", || {
            loop_repair::chain_state_loss(&mut chain, which, meter)
        })
    };
    drop(chain);
    s.row("loop.repair.core_state_loss_ms", state_loss.wall.ms);
    episodes.push(state_loss);

    let mut mesh = converged_mesh_fleet(order.permutation(goals));
    s.spans.next_op();
    let link_cut = {
        let Sweep { spans, meter, .. } = s;
        let goal = order.below(goals);
        spans.scope("loop.repair.mesh_link_cut", || {
            loop_repair::mesh_link_cut(&mut mesh, goal, meter)
        })
    };
    drop(mesh);
    s.row("loop.repair.mesh_link_cut_ms", link_cut.wall.ms);
    episodes.push(link_cut);

    let mut chain = converged_chain_fleet(order.permutation(goals));
    s.spans.next_op();
    let table_flush = {
        let Sweep { spans, meter, .. } = s;
        let goal = order.below(goals);
        spans.scope("loop.repair.table_flush", || {
            loop_repair::chain_table_flush(&mut chain, goal, meter)
        })
    };
    drop(chain);
    s.row("loop.repair.table_flush_ms", table_flush.wall.ms);
    episodes.push(table_flush);

    for e in &episodes {
        s.check(e.verdict.is_ok(), || e.verdict.clone().unwrap_err());
    }
    let worst = |f: fn(&loop_repair::Episode) -> u64| episodes.iter().map(f).max().unwrap_or(0);
    s.row("loop.detect_ticks", worst(|e| e.detect_ticks) as f64);
    s.row("loop.repair_passes", worst(|e| e.repair_passes) as f64);
    s.row("loop.failed_attempts", worst(|e| e.failed_attempts) as f64);
}

/// One diagnosis called directly: localise a goal of a state-loss-faulted
/// 128-goal chain under the other goals' background traffic, then map the
/// fault report to plan exclusions.
fn diagnose_rows(s: &mut Sweep, seed: u64) {
    let mut order = Rng::new(seed, 5);
    let mut fleet = converged_chain_fleet(order.permutation(loop_repair::GOALS));
    let faulted = loop_repair::inject_state_loss(&mut fleet, order.below(loop_repair::FAULTABLE));
    let goal = fleet.ids[0];
    let endpoints = fleet.t.endpoints(fleet.pairs[0]);
    let background: Vec<_> = fleet
        .ids
        .iter()
        .zip(&fleet.pairs)
        .skip(1)
        .map(|(id, k)| (*id, fleet.t.endpoints(*k)))
        .collect();
    let mut client = AutonomicClient::new(2);
    let mn = fleet.t.mn();
    let msgs_before = mn.nm_counters();
    let (verdict, localise_us) = s.timed("diagnose.localise", || {
        client.localise(mn, goal, endpoints, &background)
    });
    let msgs_after = mn.nm_counters();
    s.check(verdict.blamed == Some(faulted), || {
        format!("localise blamed {:?}, faulted {faulted}", verdict.blamed)
    });

    // The same diagnosis through the Diagnoser, for the report the
    // suspect → exclusion mapping consumes.
    let path = mn
        .goals
        .get(goal)
        .and_then(|r| r.applied())
        .expect("converged goal has an applied plan")
        .path
        .clone();
    let mut seq = 0u64;
    let mut probe = |mn: &mut conman_core::runtime::ManagedNetwork<crate::fixtures::Oob>| {
        seq += 1;
        let payload = format!("sweep-diag-{seq}").into_bytes();
        let sent = mn
            .net
            .send_udp(endpoints.src, endpoints.dst_ip, 40000, 7000, &payload);
        mn.net.run_to_quiescence(100_000);
        sent.is_ok()
            && mn
                .net
                .device_mut(endpoints.dst)
                .map(|d| d.take_delivered().iter().any(|p| p.payload == payload))
                .unwrap_or(false)
    };
    let report = Diagnoser::new(2)
        .for_goal(goal)
        .diagnose(mn, &path, &mut probe);
    let exclusions_us = s.median_us("diagnose.exclusions", 100, || {
        std::hint::black_box(Healer::exclusions(mn, std::hint::black_box(&report)));
    });
    s.check(!Healer::exclusions(mn, &report).is_empty(), || {
        "the fault report maps to no exclusion".to_string()
    });
    s.row("diagnose.localise_us", localise_us);
    s.row(
        "diagnose.msgs_per_diagnosis",
        ((msgs_after.sent + msgs_after.received) - (msgs_before.sent + msgs_before.received))
            as f64,
    );
    s.row("diagnose.exclusions_us", exclusions_us);
}

//! `loop_quiet` — the always-on cost of autonomy.
//!
//! A converged [`GOALS`]-goal fan-out chain (default codec,
//! `AutonomicClient::new(2)`) is ticked while nothing is wrong.  A quiet
//! tick sends zero management messages, so the planning, codec and
//! transaction layers are bypassed and netsim forwarding, the health probes
//! and the per-tick store walks do all the work.
//!
//! The program keeps its packet trace (`netsim::Network` defaults
//! `trace_enabled = true` and the loop never clears it), so a ticking fleet
//! grows by ~3.4 MB per tick for as long as it lives.  The benchmark
//! measures the program as users run it and never clears the trace itself:
//! the growth is the finding, and shows as `peak_rss_mb` and
//! `loop.rss_growth_kb_per_tick`.  It also decides how the run is laid out.
//! Sizing showed the tick itself costs the same at tick 10 and tick 300
//! (appending to the trace is O(1)); what makes late ticks of one long run
//! 2–4× slower is the first touch of memory this sandbox's virtual machine
//! has not backed yet, which sets in anywhere between 0.35 and 1.1 GB of
//! resident memory depending on what ran before — a property of the
//! machine, and too unsteady to hold a 10% bound.  So the run is several
//! fleets of [`TICKS_PER_FLEET`] timed ticks, one after another: each fleet
//! is dropped before the next is built, later fleets reuse the memory the
//! first one touched, the resident set stays near 0.4 GB, and the set-up is
//! sampled once per fleet.

use super::{drift, require, verdict, Outcome, Plan};
use crate::fixtures::{active_goals, converged_chain_fleet, rss_kb, Chain, LoopFleet, Wire};
use crate::machine::{Meter, Timed};
use crate::rng::Rng;

pub const GOALS: usize = 256;
/// Timed ticks in one fleet's life; the timed operation count is a multiple.
pub const TICKS_PER_FLEET: usize = 100;

/// Converge the quiet fleet; returns it with the set-up's time.
pub fn converge(seed: u64, meter: &mut Meter) -> (LoopFleet<Chain>, Timed) {
    meter.time(|| converged_chain_fleet(Rng::new(seed, 1).permutation(GOALS)))
}

/// One quiet tick: `(time, cost, post-condition)`.
pub fn tick(
    fleet: &mut LoopFleet<Chain>,
    op: usize,
    meter: &mut Meter,
) -> (Timed, Wire, Result<(), String>) {
    let before = Wire::of(&fleet.t.mn);
    let (tick, wall) = meter.time(|| fleet.cl.tick(&mut fleet.t.mn));
    let cost = Wire::of(&fleet.t.mn).since(before);
    let mut problems = Vec::new();
    require(&mut problems, tick.quiescent(), || {
        format!(
            "tick {op}: sent {} / received {} NM messages",
            tick.nm_sent, tick.nm_received
        )
    });
    require(
        &mut problems,
        tick.degraded.is_empty() && tick.repair.is_none(),
        || format!("tick {op}: {} goals degraded", tick.degraded.len()),
    );
    require(&mut problems, tick.telemetry_rounds > 0, || {
        format!("tick {op}: no health round ran")
    });
    require(&mut problems, active_goals(&fleet.t.mn) == GOALS, || {
        format!("tick {op}: not every goal is active")
    });
    (wall, cost, verdict(problems))
}

pub fn run(plan: &Plan) -> Outcome {
    let mut out = Outcome {
        goals_per_op: GOALS as u64,
        ..Default::default()
    };
    let fleets = plan.timed_ops / TICKS_PER_FLEET;
    let mut meter = Meter::new();
    let mut drifts = Vec::new();
    // Only the first fleet grows the process; later ones reuse its memory.
    let mut first_fleet_growth = None;
    let mut trace_entries = 0;
    for _ in 0..fleets {
        let (mut fleet, setup) = converge(plan.seed, &mut meter);
        out.setup_s.push(setup.ms / 1e3);
        let mut walls = Vec::with_capacity(TICKS_PER_FLEET);
        let mut rss_start = 0;
        for op in 0..plan.warmup_ops + TICKS_PER_FLEET {
            if op == plan.warmup_ops {
                rss_start = rss_kb().1;
            }
            let (wall, cost, verdict) = tick(&mut fleet, op, &mut meter);
            out.check(verdict);
            if op >= plan.warmup_ops {
                walls.push(wall.ms);
                out.timed_op(wall, cost);
            }
        }
        first_fleet_growth
            .get_or_insert(rss_kb().1.saturating_sub(rss_start) as f64 / TICKS_PER_FLEET as f64);
        drifts.push(drift(&walls).unwrap_or(0.0));
        trace_entries = fleet.t.mn.net.trace().len();
    }
    out.notes.push((
        "loop.rss_growth_kb_per_tick",
        "KB",
        first_fleet_growth.unwrap_or(0.0),
    ));
    out.notes.push((
        "loop.tick_drift",
        "ratio",
        crate::stats::median(&drifts).unwrap_or(0.0),
    ));
    out.notes
        .push(("netsim.trace_entries", "count", trace_entries as f64));
    out
}

//! `loop_repair` — the paper's self-healing story, end to end.
//!
//! One operation is one round of two episodes, each on a fresh converged
//! [`GOALS`]-goal fleet over the default JSON codec: a chain *core state
//! loss* (a seeded interior router loses its label maps and policy tables)
//! and a 2×3-mesh *link cut* (the first core hop of a seeded goal's applied
//! path).  An episode is timed from fault injection until
//! `run_until_converged` returns with every goal `Active` and
//! probe-verified.  This is the only workload where diagnosis under
//! background traffic and the exclusion-keyed path search do measurable
//! work, where teardown and re-set-up share one pass, and where the JSON arm
//! of the codec runs.

use super::{both, require, verdict, Outcome, Plan};
use crate::fixtures::{
    active_goals, converged_chain_fleet, converged_mesh_fleet, Chain, FanoutBed, LoopFleet, Mesh,
    Wire, CHAIN_N,
};
use crate::machine::{Meter, Timed};
use crate::rng::Rng;
use conman_core::nm::script;
use conman_core::runtime::ReconcileAction;
use netsim::device::DeviceId;
use netsim::fault::{apply_fault, FaultKind, Misconfiguration};

pub const GOALS: usize = 128;
/// Tick budget of one detect-and-repair run.
const MAX_REPAIR_TICKS: u64 = 12;
/// Routers the chain episode may fault: `core[1..=FAULTABLE]`.  The two
/// edges are out (every path must traverse them), and so is the penultimate
/// router: it holds no label or policy state the fleet's paths depend on, so
/// wiping it degrades nothing and there would be no episode to time.
pub const FAULTABLE: usize = CHAIN_N - 3;

/// What one fault episode cost and whether it ended as it must.
pub struct Episode {
    pub wall: Timed,
    pub cost: Wire,
    /// Simulated ticks from the fault to the first degraded health round.
    pub detect_ticks: u64,
    /// Simulated ticks from the fault to the pass that left all goals active.
    pub repair_ticks: u64,
    /// Repair passes that touched a goal.
    pub repair_passes: u64,
    /// `ProbeFailed` / `ExecuteFailed` / `PlanFailed` outcomes.
    pub failed_attempts: u64,
    pub verdict: Result<(), String>,
}

/// Run the loop from the injected fault to convergence and collect what the
/// tick reports say about it.  `blamed_ok` judges one tick's diagnoses.
fn detect_and_repair<T: FanoutBed>(
    fleet: &mut LoopFleet<T>,
    what: &str,
    meter: &mut Meter,
    blamed_ok: impl Fn(&conman_core::runtime::LoopDiagnosis) -> bool,
) -> Episode {
    let fault_tick = fleet.cl.ticks();
    let before = Wire::of(fleet.t.mn());
    let (run, wall) = meter.time(|| fleet.cl.run_until_converged(fleet.t.mn(), MAX_REPAIR_TICKS));
    let cost = Wire::of(fleet.t.mn()).since(before);

    let outcomes = || {
        run.ticks
            .iter()
            .filter_map(|tk| tk.repair.as_ref())
            .flat_map(|r| r.outcomes.iter())
    };
    let repair_passes = run
        .ticks
        .iter()
        .filter(|tk| {
            tk.repair.as_ref().is_some_and(|r| {
                r.outcomes
                    .iter()
                    .any(|o| o.action != ReconcileAction::Unchanged)
            })
        })
        .count() as u64;
    let failed_attempts = outcomes()
        .filter(|o| {
            matches!(
                o.action,
                ReconcileAction::ProbeFailed
                    | ReconcileAction::ExecuteFailed
                    | ReconcileAction::PlanFailed
            )
        })
        .count() as u64;
    let detect = run.first_detection();
    let repaired = run.first_repair();

    let mut problems = Vec::new();
    require(&mut problems, run.converged, || {
        format!("{what}: loop did not converge in {MAX_REPAIR_TICKS} ticks")
    });
    require(
        &mut problems,
        detect.is_some() && repaired.is_some(),
        || format!("{what}: fault was not detected and repaired"),
    );
    let goals = fleet.ids.len();
    require(&mut problems, active_goals(fleet.t.mn()) == goals, || {
        format!("{what}: not every goal is active after repair")
    });
    let diagnosed: Vec<_> = run.ticks.iter().flat_map(|tk| &tk.diagnosed).collect();
    require(
        &mut problems,
        !diagnosed.is_empty() && diagnosed.iter().all(|(_, d)| blamed_ok(d)),
        || format!("{what}: diagnosis did not blame the faulted component"),
    );
    let pairs = fleet.pairs.clone();
    require(
        &mut problems,
        pairs.iter().all(|&k| fleet.t.probe_goal(k)),
        || format!("{what}: a goal's probe is not delivered after repair"),
    );
    Episode {
        wall,
        cost,
        detect_ticks: detect.map_or(0, |t| t - fault_tick),
        repair_ticks: repaired.map_or(0, |t| t - fault_tick),
        repair_passes,
        failed_attempts,
        verdict: verdict(problems),
    }
}

/// Wipe faultable router `which` (`0..FAULTABLE`): it loses its MPLS state
/// and its policy routing, as after a control-plane reload.  Returns it.
pub fn inject_state_loss(fleet: &mut LoopFleet<Chain>, which: usize) -> DeviceId {
    let faulted = fleet.t.core[1 + which % FAULTABLE];
    for fault in [
        Misconfiguration::ClearMplsState { device: faulted },
        Misconfiguration::FlushPolicyRouting { device: faulted },
    ] {
        apply_fault(&mut fleet.t.mn.net, FaultKind::Misconfigure(fault));
    }
    faulted
}

/// Chain episode: core state loss on faultable router `which`.
pub fn chain_state_loss(fleet: &mut LoopFleet<Chain>, which: usize, meter: &mut Meter) -> Episode {
    let faulted = inject_state_loss(fleet, which);
    detect_and_repair(fleet, "chain core-state-loss", meter, |d| {
        d.blamed == Some(faulted)
    })
}

/// Chain episode for the layer sweep: flush exactly one goal's derived
/// route tables at the ingress edge; only that goal may degrade, and it is
/// localised while the rest of the fleet keeps carrying traffic.
pub fn chain_table_flush(fleet: &mut LoopFleet<Chain>, goal: usize, meter: &mut Meter) -> Episode {
    let faulted = fleet.t.core[0];
    let applied = fleet
        .t
        .mn
        .goals
        .get(fleet.ids[goal])
        .and_then(|r| r.applied())
        .expect("converged goal has an applied plan");
    let (first, last) =
        conman_modules::derived_table_range(applied.pipe_base, script::slot_count(&applied.path));
    apply_fault(
        &mut fleet.t.mn.net,
        FaultKind::Misconfigure(Misconfiguration::FlushRouteTables {
            device: faulted,
            first,
            last,
        }),
    );
    detect_and_repair(fleet, "chain per-goal table flush", meter, |d| {
        d.blamed == Some(faulted)
    })
}

/// Mesh episode: cut the first core hop of goal `goal`'s applied path.  The
/// link must be blamed, the fleet rerouted in exactly one pass with no
/// failed attempt, and no repaired path may cross the cut link.
pub fn mesh_link_cut(fleet: &mut LoopFleet<Mesh>, goal: usize, meter: &mut Meter) -> Episode {
    let hop = fleet
        .t
        .applied_core_hop(fleet.ids[goal])
        .expect("the applied path crosses the core");
    let link = fleet.t.link(hop.0, hop.1).expect("the hop is a link");
    apply_fault(&mut fleet.t.mn.net, FaultKind::LinkCut(link));
    let want = (hop.0.min(hop.1), hop.0.max(hop.1));
    let mut episode = detect_and_repair(fleet, "mesh link-cut", meter, |d| {
        d.blamed_link == Some(want)
    });

    let mut problems = Vec::new();
    require(&mut problems, episode.repair_passes == 1, || {
        format!(
            "mesh link-cut: {} repair passes, want 1",
            episode.repair_passes
        )
    });
    require(&mut problems, episode.failed_attempts == 0, || {
        format!("mesh link-cut: {} failed attempts", episode.failed_attempts)
    });
    let crosses = |devices: &[DeviceId]| {
        devices
            .windows(2)
            .any(|w| (w[0], w[1]) == hop || (w[1], w[0]) == hop)
    };
    let rerouted = fleet.ids.iter().all(|id| {
        fleet
            .t
            .mn
            .goals
            .get(*id)
            .and_then(|r| r.applied())
            .is_some_and(|a| !crosses(&a.path.devices()))
    });
    require(&mut problems, rerouted, || {
        "mesh link-cut: a repaired path crosses the cut link".to_string()
    });
    episode.verdict = both(episode.verdict, verdict(problems));
    episode
}

pub fn run(plan: &Plan) -> Outcome {
    let mut out = Outcome {
        goals_per_op: 2 * GOALS as u64,
        ..Default::default()
    };
    let mut order = Rng::new(plan.seed, 1);
    let mut faults = Rng::new(plan.seed, 2);
    let mut meter = Meter::new();
    // A diagnosis costs more messages the deeper the faulted router sits.
    // The timed rounds fault every router equally often whatever the seed
    // (their count is a multiple of FAULTABLE); the seed only orders them,
    // so the count metrics do not depend on it.
    let mut router_cycle: Vec<usize> = Vec::new();
    let mut ticks_to_repair = 0;
    let (mut chain_ms, mut mesh_ms) = (Vec::new(), Vec::new());
    for op in 0..plan.warmup_ops + plan.timed_ops {
        let router = if op < plan.warmup_ops {
            faults.below(FAULTABLE)
        } else {
            if router_cycle.is_empty() {
                router_cycle = faults.permutation(FAULTABLE);
            }
            router_cycle.pop().expect("refilled above")
        };
        let cut_goal = faults.below(GOALS);

        let (mut chain, chain_setup) =
            meter.time(|| converged_chain_fleet(order.permutation(GOALS)));
        let on_chain = chain_state_loss(&mut chain, router, &mut meter);
        drop(chain);
        let (mut mesh, mesh_setup) = meter.time(|| converged_mesh_fleet(order.permutation(GOALS)));
        let on_mesh = mesh_link_cut(&mut mesh, cut_goal, &mut meter);
        drop(mesh);

        out.check(
            both(on_chain.verdict, on_mesh.verdict).map_err(|why| format!("round {op}: {why}")),
        );
        if op >= plan.warmup_ops {
            out.setup_s.push((chain_setup.ms + mesh_setup.ms) / 1e3);
            let mut cost = on_chain.cost;
            cost.add(on_mesh.cost);
            out.timed_op(on_chain.wall + on_mesh.wall, cost);
            ticks_to_repair = ticks_to_repair
                .max(on_chain.repair_ticks)
                .max(on_mesh.repair_ticks);
            chain_ms.push(on_chain.wall.ms);
            mesh_ms.push(on_mesh.wall.ms);
        }
    }
    out.ticks_to_repair = Some(ticks_to_repair);
    let median = |v: &[f64]| crate::stats::median(v).unwrap_or(0.0);
    out.notes
        .push(("loop.repair.core_state_loss_ms", "ms", median(&chain_ms)));
    out.notes
        .push(("loop.repair.mesh_link_cut_ms", "ms", median(&mesh_ms)));
    out
}

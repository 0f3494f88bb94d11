//! The autonomic-loop experiments: ticks-to-detect, ticks-to-repair and
//! management silence under live goal fleets — on the 10-router chain and
//! on the multipath mesh.
//!
//! Every goal is backed by a real customer host pair (the fan-out
//! topologies), so per-goal health, flow-attributed localisation and repair
//! verification all run on genuine end-to-end traffic.  Four fault shapes
//! are measured:
//!
//! * **Core state loss** (chain) — the mid-chain router loses its dynamic
//!   state (label maps *and* policy tables, as after a control-plane
//!   reload): every goal through it degrades at once and one batched repair
//!   pass must re-plan the whole fleet.
//! * **Per-goal table flush** (chain) — exactly one goal's derived route
//!   tables are flushed at the ingress edge.  The other goals keep pushing
//!   traffic through the same devices during diagnosis, so only the
//!   per-goal `FlowCounters` deltas can blame the right device.
//! * **Mesh link cut / link loss** (mesh) — a core link of the applied
//!   path is cut (or spikes to 100% loss while staying administratively
//!   up).  Diagnosis must blame the *link*, and because the 2×k mesh keeps
//!   a redundant row, the batched pass must reroute the whole fleet in
//!   **one** repair attempt — no repair-budget burn, no goal ever `Failed`.
//!   This is the link-suspect-aware-planning scenario a chain cannot
//!   express.
//!
//! The chain rows also run over the **in-band** management channel, whose
//! flooded telemetry during faulty ticks gets its own message-budget row.
//!
//! Every reported number is a count or a tick on simulated time, so the
//! tables repeat byte for byte; how long a repair takes on the wall clock is
//! `loop.repair.*_ms` in `benchmark/`.

use crate::diagnosis::chain_limits;
use crate::held;
use crate::WireCost;
use conman_core::nm::{script, GoalId, GoalStatus, PathFinderLimits};
use conman_core::runtime::{
    ControlLoop, GoalEndpoints, LoopConfig, LoopReport, ManagedNetwork, ReconcileAction,
};
use conman_diagnose::AutonomicClient;
use conman_modules::{
    managed_fanout_chain, managed_fanout_chain_with, managed_mesh_fanout, ManagedChain, ManagedMesh,
};
use conman_obs::Recorder;
use mgmt_channel::{InBandChannel, ManagementChannel, OutOfBandChannel};
use netsim::device::DeviceId;
use netsim::fault::{apply_fault, FaultKind, Misconfiguration};
use netsim::route::RouteTableId;

/// Which fault the loop run injects once the fleet is converged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopScenario {
    /// Chain: the mid-chain router loses its dynamic state (MPLS label maps
    /// and policy tables, as after a control-plane reload): every goal
    /// degrades, one batched pass repairs the fleet.
    CoreStateLoss,
    /// Chain: flush one goal's derived route tables at the ingress edge:
    /// one goal degrades, the rest keep carrying traffic — localisation
    /// must stay correct under their background load, and the repair
    /// reinstalls through the blamed edge module.
    PerGoalTableFlush,
    /// Mesh: administratively cut a core link of the applied path.  The
    /// diagnosis must blame the link and the batched pass must reroute the
    /// whole fleet onto the redundant row in one repair attempt.
    MeshLinkCut,
    /// Mesh: 100% loss spike on a core link of the applied path (the link
    /// stays administratively up, so only counters reveal it).  Same
    /// one-pass-reroute obligation as the cut.
    MeshLinkLoss,
}

impl LoopScenario {
    /// Stable name for artefact output.
    pub fn name(self) -> &'static str {
        match self {
            LoopScenario::CoreStateLoss => "core-state-loss",
            LoopScenario::PerGoalTableFlush => "per-goal-table-flush",
            LoopScenario::MeshLinkCut => "mesh-link-cut",
            LoopScenario::MeshLinkLoss => "mesh-link-loss",
        }
    }

    /// Does this scenario run on the multipath mesh?
    pub fn on_mesh(self) -> bool {
        matches!(self, LoopScenario::MeshLinkCut | LoopScenario::MeshLinkLoss)
    }
}

/// What one autonomic-loop run measured.
#[derive(Debug, Clone)]
pub struct LoopBenchReport {
    /// Management channel the run used (`oob` or `in-band`).
    pub channel: &'static str,
    /// Chain size (core routers) or mesh stages.
    pub n: usize,
    /// Live goals.
    pub goals: usize,
    /// Scenario injected.
    pub scenario: LoopScenario,
    /// Ticks the setup convergence took (includes the submit tick).
    pub setup_ticks: u64,
    /// The maximum NM messages any quiescent tick sent (must be 0: a
    /// converged loop is silent).
    pub quiescent_nm_sent: u64,
    /// The entries the simulator's per-packet lookups examined during the
    /// last quiescent tick, summed over every device (`netsim`'s
    /// `LookupWork::total`): the deterministic twin of a quiet tick's wall
    /// time.  Indexed lookups keep it near-linear in the goals probed.
    pub quiet_lookup_work: u64,
    /// The heap calls the last quiescent tick made, the loop and the
    /// simulator together (zero unless the binary installed
    /// [`crate::held::Counting`]).
    pub quiet_allocs: usize,
    /// What the last quiescent tick cost on every wire: no NM message, and
    /// the health probes' frames.
    pub quiet: WireCost,
    /// Ticks from fault injection to the first health round that degraded
    /// a goal.
    pub ticks_to_detect: u64,
    /// Ticks from fault injection to the first repair pass that left every
    /// goal `Active`.
    pub ticks_to_repair: u64,
    /// Goals the detection tick degraded.
    pub degraded_goals: usize,
    /// Did every diagnosis blame the faulted component — the device for the
    /// chain scenarios, the *link* (not just a device) for the mesh ones?
    pub blamed_correct: bool,
    /// Repair passes that actually touched a goal across the
    /// detect-to-repair run.  A one-pass reroute shows `1`.
    pub repair_passes: u64,
    /// Failed repair attempts (`ProbeFailed` / `ExecuteFailed` /
    /// `PlanFailed` outcomes) across the run — the repair-budget burn.  A
    /// link-suspect-aware reroute shows `0`; the pre-link-exclusion planner
    /// burned one per goal per pass re-planning over the cut link.
    pub failed_attempts: u64,
    /// What the detection-to-repair ticks cost on every wire: the NM's
    /// messages and bytes each way, and the frames delivered.  Out-of-band
    /// runs only carry data-plane (probe) frames; the in-band rows
    /// additionally pay for every flooded copy of every management message,
    /// which is exactly the budget the in-band row exists to track: those
    /// copies count in `frames`, and their bytes, which the port counters
    /// leave out of `frame_bytes`, in `flooded_bytes` (the channel's
    /// `inband.bytes_flooded`).
    pub repair: WireCost,
    /// Did the run end converged, with every goal's traffic verified
    /// end to end?
    pub converged: bool,
}

/// Path-finder limits for the 2×k mesh (longer module paths than a chain of
/// the same nominal size, and genuinely alternative routes worth keeping in
/// the enumeration budget).
pub fn mesh_limits(k: usize) -> PathFinderLimits {
    PathFinderLimits {
        max_steps: 3 * (k + 2) + 16,
        max_paths: 64,
    }
}

/// The derived route-table range of a goal's applied pipe block (via the
/// IP module's authoritative numbering).
fn goal_table_range<C: ManagementChannel>(
    mn: &ManagedNetwork<C>,
    id: GoalId,
) -> (RouteTableId, RouteTableId) {
    let applied = mn
        .goals
        .get(id)
        .and_then(|r| r.applied())
        .expect("goal has an applied plan");
    conman_modules::derived_table_range(applied.pipe_base, script::slot_count(&applied.path))
}

/// Detect/repair metrics shared by the chain and mesh runs, derived from
/// the post-fault tick reports.
pub(crate) struct RunMetrics {
    detect: u64,
    repaired: u64,
    degraded_goals: usize,
    /// Repair passes that changed some goal.
    pub(crate) repair_passes: u64,
    failed_attempts: u64,
}

pub(crate) fn run_metrics(run: &LoopReport) -> RunMetrics {
    let detect = run.first_detection().unwrap_or(0);
    let repaired = run.first_repair().unwrap_or(0);
    let degraded_goals = run
        .ticks
        .iter()
        .find(|tk| tk.tick == detect)
        .map(|tk| tk.degraded.len())
        .unwrap_or(0);
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
    let failed_attempts = run
        .ticks
        .iter()
        .filter_map(|tk| tk.repair.as_ref())
        .flat_map(|r| r.outcomes.iter())
        .filter(|o| {
            matches!(
                o.action,
                ReconcileAction::ProbeFailed
                    | ReconcileAction::ExecuteFailed
                    | ReconcileAction::PlanFailed
            )
        })
        .count() as u64;
    RunMetrics {
        detect,
        repaired,
        degraded_goals,
        repair_passes,
        failed_attempts,
    }
}

/// Run the autonomic loop once on the fan-out chain over the out-of-band
/// channel: converge `goals` goals on an `n`-router chain, verify management
/// silence, inject the scenario's fault, and measure detection and repair
/// in ticks.
pub fn loop_run(n: usize, goals: usize, scenario: LoopScenario) -> LoopBenchReport {
    let mut t = managed_fanout_chain(n, goals);
    chain_loop_run(&mut t, n, goals, scenario, "oob")
}

/// [`loop_run`] with an enabled flight recorder: the same chain scenario,
/// but every span of the run (setup convergence included) lands in the
/// trace journal.  Returns the report plus the journal dump, so the
/// harness can lint the journal with the conformance checker and persist
/// it as a CI artefact.
pub fn recorded_loop_run(
    n: usize,
    goals: usize,
    scenario: LoopScenario,
) -> (LoopBenchReport, String) {
    let mut t = managed_fanout_chain(n, goals);
    t.mn.set_recorder(Recorder::new());
    let report = chain_loop_run(&mut t, n, goals, scenario, "oob");
    let journal = t.mn.recorder.journal_json();
    (report, journal)
}

/// [`loop_run`] over the **in-band** flooding channel — the message-budget
/// row: quiescent ticks must still be silent, and `repair.nm` records
/// what the flooded telemetry and repair transactions cost during the
/// faulty ticks (`repair.flooded_bytes` their flooded copies' bytes, read
/// from the recorder the run attaches).
pub fn loop_run_inband(n: usize, goals: usize, scenario: LoopScenario) -> LoopBenchReport {
    let mut t = managed_fanout_chain_with(n, goals, InBandChannel::new());
    t.mn.set_recorder(Recorder::new());
    let report = chain_loop_run(&mut t, n, goals, scenario, "in-band");
    // Every flood died out inside the run that sent it (inband.rs's floor).
    assert_eq!(t.mn.recorder.counter("inband.stragglers_dropped"), 0);
    report
}

fn chain_loop_run<C: ManagementChannel>(
    t: &mut ManagedChain<C>,
    n: usize,
    goals: usize,
    scenario: LoopScenario,
    channel: &'static str,
) -> LoopBenchReport {
    assert!(
        !scenario.on_mesh(),
        "{} runs on the mesh (use mesh_loop_run)",
        scenario.name()
    );
    t.discover();
    t.mn.goals.limits = chain_limits(n);

    let mut cl = ControlLoop::new(&t.mn, LoopConfig::default())
        .with_client(Box::new(AutonomicClient::new(2)));
    let mut ids = Vec::with_capacity(goals);
    for k in 0..goals {
        let (src, dst, dst_ip) = t.fanout_probe(k);
        let id = t.mn.submit(t.fanout_goal(k));
        cl.track(id, GoalEndpoints { src, dst, dst_ip });
        ids.push(id);
    }

    // ---- Setup: converge the fleet with zero operator calls. ----------
    let setup = cl.run_until_converged(&mut t.mn, 16);
    assert!(setup.converged, "fleet must converge during setup");
    let setup_ticks = setup.ticks.len() as u64;

    // ---- Quiescence: a converged loop is silent. ----------------------
    let quiet = quiet_ticks(&mut cl, &mut t.mn);

    // ---- Fault. -------------------------------------------------------
    // The fleet fault hits a transit router (repair routes around it); the
    // per-goal fault flushes one goal's derived tables at the *ingress*
    // edge, the only place per-goal state is not redundant with its
    // siblings' (all tunnels share the transit endpoints) — repaired by
    // reinstalling through the blamed edge module.
    let faulted = match scenario {
        LoopScenario::CoreStateLoss => t.core[1],
        LoopScenario::PerGoalTableFlush => t.core[0],
        _ => unreachable!("mesh scenarios rejected above"),
    };
    match scenario {
        LoopScenario::CoreStateLoss => {
            apply_fault(
                &mut t.mn.net,
                FaultKind::Misconfigure(Misconfiguration::ClearMplsState { device: faulted }),
            );
            apply_fault(
                &mut t.mn.net,
                FaultKind::Misconfigure(Misconfiguration::FlushPolicyRouting { device: faulted }),
            );
        }
        LoopScenario::PerGoalTableFlush => {
            let (first, last) = goal_table_range(&t.mn, ids[0]);
            apply_fault(
                &mut t.mn.net,
                FaultKind::Misconfigure(Misconfiguration::FlushRouteTables {
                    device: faulted,
                    first,
                    last,
                }),
            );
        }
        _ => unreachable!(),
    }
    let fault_tick = cl.ticks();

    // ---- Detect + repair, autonomically. ------------------------------
    let before = WireCost::of(&t.mn);
    let run = cl.run_until_converged(&mut t.mn, 12);
    let repair = WireCost::of(&t.mn).since(before);
    let m = run_metrics(&run);
    let detect_report = run.ticks.iter().find(|tk| tk.tick == m.detect);
    let blamed_correct = detect_report.is_some_and(|tk| {
        !tk.diagnosed.is_empty() && tk.diagnosed.iter().all(|(_, d)| d.blamed == Some(faulted))
    });
    let all_active = t.mn.goals.iter().all(|r| r.status == GoalStatus::Active);
    let traffic_ok = (0..goals).all(|k| t.probe_pair(k));

    let report = LoopBenchReport {
        channel,
        n,
        goals,
        scenario,
        setup_ticks,
        quiescent_nm_sent: quiet.nm_sent,
        quiet_lookup_work: quiet.lookup_work,
        quiet_allocs: quiet.allocs,
        quiet: quiet.cost,
        ticks_to_detect: m.detect.saturating_sub(fault_tick),
        ticks_to_repair: m.repaired.saturating_sub(fault_tick),
        degraded_goals: m.degraded_goals,
        blamed_correct,
        repair_passes: m.repair_passes,
        failed_attempts: m.failed_attempts,
        repair,
        converged: run.converged && all_active && traffic_ok,
    };
    assert_eq!(t.mn.audit(), [], "the devices hold what the goals claim");
    report
}

/// What three quiescent ticks on a converged fleet showed.
struct Quiet {
    /// The most NM messages any of them sent.
    nm_sent: u64,
    /// The lookup work of the last one.
    lookup_work: u64,
    /// The heap calls of the last one.
    allocs: usize,
    /// What the last one cost on every wire.
    cost: WireCost,
}

fn quiet_ticks<C: ManagementChannel>(cl: &mut ControlLoop<C>, mn: &mut ManagedNetwork<C>) -> Quiet {
    let mut quiet = Quiet {
        nm_sent: 0,
        lookup_work: 0,
        allocs: 0,
        cost: WireCost::default(),
    };
    for _ in 0..3 {
        let (work, cost) = (mn.net.lookup_work().total(), WireCost::of(mn));
        let heap = held::allocs();
        let tick = cl.tick(mn);
        quiet.allocs = held::allocs().since(heap).calls;
        assert!(tick.frames > 0, "every quiet tick probes: {tick:?}");
        quiet.nm_sent = quiet.nm_sent.max(tick.nm_sent);
        quiet.lookup_work = mn.net.lookup_work().total() - work;
        quiet.cost = WireCost::of(mn).since(cost);
    }
    quiet
}

/// Run the autonomic loop once on the 2×k multipath mesh: converge `goals`
/// goals, cut (or blackhole) a core link of the applied path, and measure
/// the link-suspect-aware reroute — the diagnosis must blame the *link* and
/// the batched pass must move the whole fleet onto the redundant row in one
/// repair attempt.
pub fn mesh_loop_run(k: usize, goals: usize, scenario: LoopScenario) -> LoopBenchReport {
    let mut t: ManagedMesh<OutOfBandChannel> = managed_mesh_fanout(k, goals);
    mesh_loop_run_with(&mut t, k, goals, scenario)
}

/// [`mesh_loop_run`] with an enabled flight recorder, returning the report
/// plus the full-run journal dump for conformance linting.
pub fn recorded_mesh_loop_run(
    k: usize,
    goals: usize,
    scenario: LoopScenario,
) -> (LoopBenchReport, String) {
    let mut t: ManagedMesh<OutOfBandChannel> = managed_mesh_fanout(k, goals);
    t.mn.set_recorder(Recorder::new());
    let report = mesh_loop_run_with(&mut t, k, goals, scenario);
    let journal = t.mn.recorder.journal_json();
    (report, journal)
}

/// Discover the 2×k mesh, submit its `goals` fan-out goals through a new
/// autonomic loop and run the loop until the fleet converges.  Returns the
/// loop, the goal ids in submission order and the ticks the setup took.
pub(crate) fn converge_fanout_fleet(
    t: &mut ManagedMesh<OutOfBandChannel>,
    k: usize,
    goals: usize,
) -> (ControlLoop<OutOfBandChannel>, Vec<GoalId>, u64) {
    t.discover();
    t.mn.goals.limits = mesh_limits(k);

    let mut cl = ControlLoop::new(&t.mn, LoopConfig::default())
        .with_client(Box::new(AutonomicClient::new(2)));
    let mut ids = Vec::with_capacity(goals);
    for g in 0..goals {
        let (src, dst, dst_ip) = t.fanout_probe(g);
        let id = t.mn.submit(t.fanout_goal(g));
        cl.track(id, GoalEndpoints { src, dst, dst_ip });
        ids.push(id);
    }

    let setup = cl.run_until_converged(&mut t.mn, 16);
    assert!(setup.converged, "fleet must converge during setup");
    (cl, ids, setup.ticks.len() as u64)
}

fn mesh_loop_run_with(
    t: &mut ManagedMesh<OutOfBandChannel>,
    k: usize,
    goals: usize,
    scenario: LoopScenario,
) -> LoopBenchReport {
    assert!(
        scenario.on_mesh(),
        "{} runs on the chain (use loop_run)",
        scenario.name()
    );
    let (mut cl, ids, setup_ticks) = converge_fanout_fleet(t, k, goals);
    let quiet = quiet_ticks(&mut cl, &mut t.mn);

    // ---- Fault: kill the first core-to-core link of the applied path. --
    let hop = t
        .applied_core_hop(ids[0])
        .expect("the applied path crosses the core");
    let link = t.link(hop.0, hop.1).expect("the hop is a physical link");
    match scenario {
        LoopScenario::MeshLinkCut => apply_fault(&mut t.mn.net, FaultKind::LinkCut(link)),
        LoopScenario::MeshLinkLoss => apply_fault(
            &mut t.mn.net,
            FaultKind::LossSpike {
                link,
                loss_ppm: 1_000_000,
            },
        ),
        _ => unreachable!(),
    }
    let fault_tick = cl.ticks();

    let before = WireCost::of(&t.mn);
    let run = cl.run_until_converged(&mut t.mn, 12);
    let repair = WireCost::of(&t.mn).since(before);
    let m = run_metrics(&run);
    let detect_report = run.ticks.iter().find(|tk| tk.tick == m.detect);
    // The mesh bar is higher than the chain's: the *link* must be blamed,
    // not merely some device near it.
    let want_link = if hop.0 <= hop.1 {
        (hop.0, hop.1)
    } else {
        (hop.1, hop.0)
    };
    let blamed_correct = detect_report.is_some_and(|tk| {
        !tk.diagnosed.is_empty()
            && tk
                .diagnosed
                .iter()
                .all(|(_, d)| d.blamed_link == Some(want_link))
    });
    let all_active = t.mn.goals.iter().all(|r| r.status == GoalStatus::Active);
    // Every repaired path must genuinely avoid the dead link.
    let avoids_link = |devices: &[DeviceId]| {
        !devices
            .windows(2)
            .any(|w| (w[0], w[1]) == hop || (w[1], w[0]) == hop)
    };
    let rerouted = ids.iter().all(|id| {
        t.mn.goals
            .get(*id)
            .and_then(|r| r.applied())
            .is_some_and(|a| avoids_link(&a.path.devices()))
    });
    let traffic_ok = (0..goals).all(|g| t.probe_pair(g));

    let report = LoopBenchReport {
        channel: "oob",
        n: k,
        goals,
        scenario,
        setup_ticks,
        quiescent_nm_sent: quiet.nm_sent,
        quiet_lookup_work: quiet.lookup_work,
        quiet_allocs: quiet.allocs,
        quiet: quiet.cost,
        ticks_to_detect: m.detect.saturating_sub(fault_tick),
        ticks_to_repair: m.repaired.saturating_sub(fault_tick),
        degraded_goals: m.degraded_goals,
        blamed_correct,
        repair_passes: m.repair_passes,
        failed_attempts: m.failed_attempts,
        repair,
        converged: run.converged && all_active && rerouted && traffic_ok,
    };
    assert_eq!(t.mn.audit(), [], "the devices hold what the goals claim");
    report
}

/// Sanity-check a run the way CI's smoke pass does: converged, silent when
/// quiescent, fault blamed on the right component, repair within budget.
pub fn assert_loop_healthy(report: &LoopBenchReport, max_repair_ticks: u64) {
    assert!(report.converged, "loop run must converge: {report:?}");
    assert_eq!(
        report.quiescent_nm_sent, 0,
        "a converged loop must send zero NM messages per tick: {report:?}"
    );
    assert!(
        report.blamed_correct,
        "diagnosis must blame the faulted component: {report:?}"
    );
    assert!(
        report.ticks_to_detect >= 1 && report.ticks_to_detect <= max_repair_ticks,
        "detection outside tick budget: {report:?}"
    );
    assert!(
        report.ticks_to_repair >= report.ticks_to_detect
            && report.ticks_to_repair <= max_repair_ticks,
        "repair outside tick budget: {report:?}"
    );
}

/// The mesh smoke gate: on top of [`assert_loop_healthy`], the repair must
/// be a **one-pass reroute** — exactly one batched pass touched the fleet
/// and zero attempts failed, so the repair budget was never burned and no
/// goal ever parked `Failed`.  (The pre-link-exclusion planner failed this:
/// it re-planned over the cut link, burned `GoalStore::MAX_REPAIR_ATTEMPTS` and parked
/// the goals.)
pub fn assert_one_pass_reroute(report: &LoopBenchReport) {
    assert_loop_healthy(report, 3);
    assert_eq!(
        report.repair_passes, 1,
        "the reroute must land in one batched pass: {report:?}"
    );
    assert_eq!(
        report.failed_attempts, 0,
        "a link-suspect-aware reroute burns no repair budget: {report:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_fault_detects_and_repairs_within_budget_on_a_short_chain() {
        let report = loop_run(4, 3, LoopScenario::CoreStateLoss);
        assert_loop_healthy(&report, 3);
        assert_eq!(report.degraded_goals, 3, "every goal crossed the dead core");
    }

    #[test]
    fn per_goal_fault_is_localised_under_background_traffic() {
        let report = loop_run(4, 4, LoopScenario::PerGoalTableFlush);
        assert_loop_healthy(&report, 3);
        assert_eq!(
            report.degraded_goals, 1,
            "only the faulted goal may degrade: {report:?}"
        );
    }

    #[test]
    fn mesh_link_cut_is_a_one_pass_reroute() {
        let report = mesh_loop_run(2, 3, LoopScenario::MeshLinkCut);
        assert_one_pass_reroute(&report);
        assert_eq!(report.degraded_goals, 3, "every goal crossed the cut link");
    }

    #[test]
    fn mesh_link_loss_is_a_one_pass_reroute() {
        let report = mesh_loop_run(2, 3, LoopScenario::MeshLinkLoss);
        assert_one_pass_reroute(&report);
    }

    #[test]
    fn in_band_loop_stays_silent_when_quiescent_and_pays_its_flood_in_frames() {
        let oob = loop_run(4, 3, LoopScenario::CoreStateLoss);
        let inband = loop_run_inband(4, 3, LoopScenario::CoreStateLoss);
        assert_loop_healthy(&inband, 3);
        assert!(
            inband.repair.nm.sent > 0,
            "the faulty ticks carry the repair message budget: {inband:?}"
        );
        assert!(
            inband.repair.frames > oob.repair.frames,
            "flooding the same NM messages over real links must cost extra \
             frames: in-band {} vs oob {}",
            inband.repair.frames,
            oob.repair.frames
        );
    }
}

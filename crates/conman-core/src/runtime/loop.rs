//! The autonomic control loop: a tick-driven NM runtime.
//!
//! Everything before this module was *call-driven*: an operator invoked
//! `reconcile()`, and the network converged exactly once.  The
//! [`ControlLoop`] closes the loop the way CONMan's management plane is
//! meant to run — continuously, with no operator in the path:
//!
//! 1. **Tick** — a [`StepClock`] advances the simulated network by one
//!    fixed-width tick (`Network::run_until` lands exactly on the
//!    boundary, so runs replay tick for tick).  It is the loop's only
//!    clock: every tick is a health round, also when in-band management
//!    traffic has pushed the network's time past the boundary.
//! 2. **Operator intent** — the pending [`NmEvent`]s (submissions and
//!    withdrawals) are applied in arrival order.  Withdrawals coalesce
//!    into a single batched teardown and always win over an in-flight
//!    repair.
//! 3. **Health** — every `Active` goal with known endpoints gets a short
//!    probe burst inside its own flow-attribution window; the goal is
//!    marked `Degraded` when its **attributed delivery ratio** (delivered
//!    vs. sent, from the destination host's per-goal
//!    [`FlowCounters`](netsim::stats::FlowCounters)) drops below the
//!    configured threshold — *not* when device totals move, so one goal's
//!    fault never degrades its healthy neighbours.
//! 4. **Diagnose** — the tick's degraded goals are handed, all in one
//!    call, to the pluggable [`LoopClient`] (`conman-diagnose`'s
//!    `AutonomicClient` in the full system).  It measures them together —
//!    one counter poll of their path devices before every goal's probe
//!    burst and one after, under the other goals' live background traffic
//!    — then localises each goal's fault from its own flow deltas and
//!    reports the modules that goal's re-plan must avoid.
//! 5. **Repair** — one **batched** `reconcile_with` pass re-plans and
//!    re-executes everything that needs work (each device staged once and
//!    committed once), verifies each repair with an end-to-end probe, and
//!    epoch-tags the pass: a fault that lands *while* a pass is committing
//!    fails that pass's verification and simply converges on the next
//!    tick's epoch.
//!
//! On a converged network a tick sends **zero** management messages: health
//! is judged from customer-side traffic, so the management plane is silent
//! until something is actually wrong.

use super::event::{GoalEndpoints, NmEvent};
use super::reconcile::ReconcileReport;
use super::ManagedNetwork;
use crate::nm::goal::{Exclusion, GoalFailure, GoalId, GoalRecord, GoalStatus};
use conman_obs::{Blame, TraceKind};
use mgmt_channel::ManagementChannel;
use netsim::clock::{SimDuration, SimTime, StepClock};
use netsim::device::DeviceId;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;

/// Tuning knobs of a [`ControlLoop`].
#[derive(Debug, Clone, Copy)]
pub struct LoopConfig {
    /// Width of one tick of simulated time.
    pub tick: SimDuration,
    /// Probes sent per goal per tick.
    pub probes_per_goal: u32,
    /// A goal is `Degraded` when its attributed delivery percentage falls
    /// *below* this threshold (100 = any loss degrades).
    pub degraded_below_pct: u8,
}

impl Default for LoopConfig {
    fn default() -> Self {
        LoopConfig {
            tick: SimDuration::from_millis(100),
            probes_per_goal: 2,
            degraded_below_pct: 100,
        }
    }
}

/// What the loop's diagnosis client reports for one degraded goal.
#[derive(Debug, Clone, Default)]
pub struct LoopDiagnosis {
    /// Modules and links the goal's re-plan must avoid.  Link exclusions
    /// reach the path finder's traversal, so the batched repair pass
    /// reroutes around a blamed link in one epoch wherever the topology
    /// offers an alternative.
    pub excluded: BTreeSet<Exclusion>,
    /// Path devices that did not answer telemetry (crashed or unreachable).
    pub unresponsive: Vec<DeviceId>,
    /// The device the prime suspect pins the fault to, if any.
    pub blamed: Option<DeviceId>,
    /// The physical link a suspect pins the fault to, if any (normalised
    /// with the smaller device id first).
    pub blamed_link: Option<(DeviceId, DeviceId)>,
    /// The prime suspect as the journal spells it, with its confidence
    /// (0–100); `None` when the goal's probes all arrived.
    pub prime: Option<(Blame, u8)>,
}

/// The loop's pluggable diagnosis stage.  `conman-diagnose` implements
/// this with its Diagnoser (per-goal flow-delta localisation) and Healer
/// (suspects → excluded modules) — the two become *clients of the loop*
/// rather than operator entry points.  Without a client the loop still
/// repairs by re-planning blind (good enough for transient faults).
///
/// The loop hands a tick's whole degraded set to [`Self::localise_all`]
/// once, so a tick pays for one measurement however many goals degraded.
/// The client journals each goal's conclusion as a `DiagnoseStart …
/// Diagnosed` span around that goal's own analysis.
pub trait LoopClient<C: ManagementChannel> {
    /// Localise why each of `goals` is not carrying traffic, from one
    /// shared measurement; one verdict per goal, in `goals` order (a client
    /// may skip a goal it has nothing to measure, such as one without an
    /// applied plan).  Each entry names a goal and its probe endpoints;
    /// `background` lists the live goals that are *not* being diagnosed, so
    /// the client can keep their traffic flowing during the measurement —
    /// localisation must stay correct under load.
    fn localise_all(
        &mut self,
        mn: &mut ManagedNetwork<C>,
        goals: &[(GoalId, GoalEndpoints)],
        background: &[(GoalId, GoalEndpoints)],
    ) -> Vec<(GoalId, LoopDiagnosis)>;

    /// [`Self::localise_all`] for one goal.
    fn localise(
        &mut self,
        mn: &mut ManagedNetwork<C>,
        goal: GoalId,
        endpoints: GoalEndpoints,
        background: &[(GoalId, GoalEndpoints)],
    ) -> LoopDiagnosis {
        self.localise_all(mn, &[(goal, endpoints)], background)
            .pop()
            .map(|(_, diagnosis)| diagnosis)
            .unwrap_or_default()
    }
}

/// What one tick did.
#[derive(Debug, Clone, Default)]
pub struct TickReport {
    /// The tick's ordinal (1-based).
    pub tick: u64,
    /// Simulated time at the tick boundary.
    pub at: SimTime,
    /// The repair epoch after the tick (increments once per repair pass).
    pub epoch: u64,
    /// Operator submits + withdraws applied this tick.
    pub events: usize,
    /// Health rounds run this tick: always 1, every tick is one.  Kept only
    /// because `benchmark/` reads it (ROADMAP item 6b un-pins it).
    pub telemetry_rounds: usize,
    /// Goals submitted through [`ControlLoop::submit`] and applied this tick.
    pub submitted: Vec<GoalId>,
    /// Goals withdrawn this tick (their teardowns ran as one batch).
    pub withdrawn: Vec<GoalId>,
    /// Goals the health phase freshly degraded (attributed delivery ratio
    /// below threshold).
    pub degraded: Vec<GoalId>,
    /// Per-goal diagnosis verdicts from the loop client.
    pub diagnosed: Vec<(GoalId, LoopDiagnosis)>,
    /// The repair pass, when one ran.
    pub repair: Option<ReconcileReport>,
    /// Management messages the NM sent during the tick (0 when converged).
    pub nm_sent: u64,
    /// Management messages the NM received during the tick.
    pub nm_received: u64,
    /// Link-level frames the network delivered during the tick (probe
    /// traffic, and — on the in-band channel — every flooded management
    /// frame: the tick's frame budget, previously visible only inside the
    /// bench harness).
    pub frames: u64,
}

impl TickReport {
    /// Did this tick leave the management plane silent?
    pub fn quiescent(&self) -> bool {
        self.nm_sent == 0 && self.nm_received == 0
    }
}

/// A multi-tick run's worth of reports.
#[derive(Debug, Clone, Default)]
pub struct LoopReport {
    /// Per-tick reports, in order.
    pub ticks: Vec<TickReport>,
    /// Did the run end with every goal settled (`Active` or `Failed`) and
    /// the management plane silent?
    pub converged: bool,
}

impl LoopReport {
    /// The first tick (1-based ordinal) whose health phase degraded a goal.
    pub fn first_detection(&self) -> Option<u64> {
        self.ticks
            .iter()
            .find(|t| !t.degraded.is_empty())
            .map(|t| t.tick)
    }

    /// The first tick whose repair pass left every stored goal `Active`.
    pub fn first_repair(&self) -> Option<u64> {
        self.ticks
            .iter()
            .find(|t| t.repair.as_ref().is_some_and(|r| r.converged()))
            .map(|t| t.tick)
    }
}

/// The autonomic control loop.  Owns the tick clock, the pending operator
/// intent and the per-goal probe endpoints; drives a
/// [`ManagedNetwork`]'s goal store to its desired state tick after tick
/// with no operator in the path.
pub struct ControlLoop<C: ManagementChannel> {
    /// Tuning knobs (tick width, probe burst size, degradation threshold).
    pub config: LoopConfig,
    clock: StepClock,
    /// Submits and withdraws not yet applied, in arrival order.
    pending: Vec<NmEvent>,
    client: Option<Box<dyn LoopClient<C>>>,
    endpoints: BTreeMap<GoalId, GoalEndpoints>,
    probe_seq: u64,
    /// The probe payload being sent, rewritten in place for each probe.
    probe_payload: Vec<u8>,
    epoch: u64,
}

impl<C: ManagementChannel> ControlLoop<C> {
    /// A loop anchored at the network's current simulated time: tick
    /// boundaries are laid out from "now".
    pub fn new(mn: &ManagedNetwork<C>, config: LoopConfig) -> Self {
        ControlLoop {
            config,
            clock: StepClock::starting_at(mn.net.now(), config.tick),
            pending: Vec::new(),
            client: None,
            endpoints: BTreeMap::new(),
            probe_seq: 0,
            probe_payload: Vec::new(),
            epoch: 0,
        }
    }

    /// Attach a diagnosis client (builder style).
    pub fn with_client(mut self, client: Box<dyn LoopClient<C>>) -> Self {
        self.client = Some(client);
        self
    }

    /// Completed ticks.
    pub fn ticks(&self) -> u64 {
        self.clock.ticks()
    }

    /// The current repair epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Operator intent: declare a goal (applied on the next tick).
    pub fn submit(&mut self, goal: crate::nm::ConnectivityGoal, endpoints: Option<GoalEndpoints>) {
        self.pending.push(NmEvent::Submit {
            goal: Box::new(goal),
            endpoints,
        });
    }

    /// Operator intent: withdraw a goal (processed on the next tick, before
    /// any repair — a withdrawal cancels an in-flight repair cleanly).
    pub fn withdraw(&mut self, id: GoalId) {
        self.pending.push(NmEvent::Withdraw(id));
    }

    /// Adopt a goal that was submitted to the store directly, registering
    /// its probe endpoints with the loop.
    pub fn track(&mut self, id: GoalId, endpoints: GoalEndpoints) {
        self.endpoints.insert(id, endpoints);
    }

    /// Run one tick: advance the network to the tick boundary, apply the
    /// pending operator intent, then run the health → diagnose → repair
    /// pipeline.
    pub fn tick(&mut self, mn: &mut ManagedNetwork<C>) -> TickReport {
        let before = (mn.counters.sent, mn.counters.received);
        let frames_before = mn.net.frames_delivered();
        let deadline = self.clock.advance();
        mn.net.run_until(deadline);
        let now = mn.net.now();
        let mut report = TickReport {
            tick: self.clock.ticks(),
            at: now,
            epoch: self.epoch,
            telemetry_rounds: 1,
            ..Default::default()
        };
        mn.recorder.enter(
            now.as_nanos(),
            TraceKind::TickStart {
                tick: report.tick,
                epoch: self.epoch,
            },
        );
        mn.recorder.inc("loop.ticks", 1);

        // ---- 1. Operator intent, in arrival order. --------------------
        let mut withdraws = Vec::new();
        for event in std::mem::take(&mut self.pending) {
            report.events += 1;
            match event {
                NmEvent::Submit { goal, endpoints } => {
                    let id = mn.submit(*goal);
                    if let Some(ep) = endpoints {
                        self.endpoints.insert(id, ep);
                    }
                    mn.recorder
                        .event(now.as_nanos(), TraceKind::Submit { goal: id.0 });
                    report.submitted.push(id);
                }
                NmEvent::Withdraw(id) => withdraws.push(id),
            }
        }

        // ---- 2. Withdrawals first: one batched teardown, and an
        // in-flight repair of a withdrawn goal is simply dropped. --------
        if !withdraws.is_empty() {
            for id in &withdraws {
                self.endpoints.remove(id);
                mn.recorder
                    .event(now.as_nanos(), TraceKind::Withdraw { goal: id.0 });
            }
            mn.withdraw_many(&withdraws);
            report.withdrawn = withdraws;
        }

        self.health_phase(mn, &mut report);
        self.diagnose_phase(mn, &mut report);
        self.repair_phase(mn, &mut report);

        report.nm_sent = mn.counters.sent.saturating_sub(before.0);
        report.nm_received = mn.counters.received.saturating_sub(before.1);
        report.frames = mn.net.frames_delivered().saturating_sub(frames_before);
        mn.recorder.event(
            mn.net.now().as_nanos(),
            TraceKind::TickEnd {
                events: report.events as u64,
                nm_sent: report.nm_sent,
                nm_received: report.nm_received,
                frames: report.frames,
            },
        );
        mn.recorder.exit();
        report
    }

    /// Tick until every stored goal is settled (`Active` or `Failed`), no
    /// operator intent is pending and the management plane went silent for
    /// a full tick — or `max_ticks` ran out.
    pub fn run_until_converged(
        &mut self,
        mn: &mut ManagedNetwork<C>,
        max_ticks: u64,
    ) -> LoopReport {
        let mut report = LoopReport::default();
        for _ in 0..max_ticks {
            let tick = self.tick(mn);
            let silent = tick.nm_sent == 0;
            report.ticks.push(tick);
            let settled = mn
                .goals
                .iter()
                .all(|r| matches!(r.status, GoalStatus::Active | GoalStatus::Failed));
            if silent && settled && self.pending.is_empty() {
                report.converged = true;
                return report;
            }
        }
        report
    }

    /// One end-to-end probe burst for a goal, inside its flow-attribution
    /// windows.  Returns `(sent, delivered)` with `delivered` read from the
    /// destination host's per-goal [`FlowCounters`] — window-based
    /// attribution, not device totals, so concurrent goals never score each
    /// other's traffic.
    fn burst(&mut self, mn: &mut ManagedNetwork<C>, id: GoalId, ep: GoalEndpoints) -> (u64, u64) {
        let sent = u64::from(self.config.probes_per_goal.max(1));
        let before = mn.net.flow_counters(ep.dst, id.0).local_delivered;
        for _ in 0..sent {
            self.probe_seq += 1;
            let payload = &mut self.probe_payload;
            payload.clear();
            write!(payload, "loop-{}-{}", id.0, self.probe_seq).expect("a Vec takes every byte");
            mn.net.begin_flow_window(id.0);
            // The verdict comes from the counters, not the probe's own
            // payload match.
            ep.probe(&mut mn.net, payload);
            mn.net.end_flow_window();
        }
        let after = mn.net.flow_counters(ep.dst, id.0).local_delivered;
        (sent, after.saturating_sub(before))
    }

    /// The stored goals `keep` selects that have probe endpoints, in id
    /// order: one walk of the store.
    fn tracked(
        &self,
        mn: &ManagedNetwork<C>,
        keep: impl Fn(&GoalRecord) -> bool,
    ) -> Vec<(GoalId, GoalEndpoints)> {
        mn.goals
            .iter()
            .filter(|r| keep(r))
            .filter_map(|r| Some((r.id, *self.endpoints.get(&r.id)?)))
            .collect()
    }

    /// Health: probe every `Active` goal with known endpoints; degrade the
    /// ones whose attributed delivery ratio fell below threshold.
    fn health_phase(&mut self, mn: &mut ManagedNetwork<C>, report: &mut TickReport) {
        for (id, ep) in self.tracked(mn, |r| r.status == GoalStatus::Active) {
            let (sent, delivered) = self.burst(mn, id, ep);
            let healthy = delivered * 100 >= u64::from(self.config.degraded_below_pct) * sent;
            mn.recorder.event(
                mn.net.now().as_nanos(),
                TraceKind::HealthProbe {
                    goal: id.0,
                    sent,
                    delivered,
                    healthy,
                },
            );
            if !healthy {
                if let Some(rec) = mn.goals.get_mut(id) {
                    rec.status = GoalStatus::Degraded;
                    rec.last_error = Some(GoalFailure::Unhealthy { sent, delivered });
                }
                mn.recorder.inc("health.degraded", 1);
                report.degraded.push(id);
            }
        }
    }

    /// Diagnose: hand every degraded goal that still has an applied plan to
    /// the loop client in one call, with the other live goals as background
    /// traffic; record the exclusions each re-plan must respect.
    fn diagnose_phase(&mut self, mn: &mut ManagedNetwork<C>, report: &mut TickReport) {
        let work = self.tracked(mn, |r| r.status.needs_work() && r.applied().is_some());
        if work.is_empty() {
            return;
        }
        // A goal being diagnosed needs work, so it is never among the
        // `Active` ones.
        let background = self.tracked(mn, |r| r.status == GoalStatus::Active);
        let Some(client) = self.client.as_mut() else {
            return;
        };
        report.diagnosed = client.localise_all(mn, &work, &background);
        for (id, diagnosis) in &report.diagnosed {
            mn.recorder
                .observe("diagnose.exclusions", diagnosis.excluded.len() as f64);
            mn.goals.mark_degraded(*id, diagnosis.excluded.clone());
        }
    }

    /// Repair: one batched reconcile pass over everything that needs work,
    /// each repair verified with an end-to-end probe.  The pass gets its
    /// own epoch: a fault racing the pass fails verification and converges
    /// under the next tick's epoch instead of wedging this one.
    fn repair_phase(&mut self, mn: &mut ManagedNetwork<C>, report: &mut TickReport) {
        let needing = mn.goals.iter().filter(|r| r.status.needs_work()).count();
        if needing == 0 {
            return;
        }
        self.epoch += 1;
        report.epoch = self.epoch;
        mn.recorder.enter(
            mn.net.now().as_nanos(),
            TraceKind::RepairStart {
                epoch: self.epoch,
                goals: needing as u64,
            },
        );
        let endpoints = &self.endpoints;
        let mut seq = self.probe_seq;
        let outcome = mn.reconcile_with(|mn, id| {
            let ep = endpoints.get(&id)?;
            seq += 1;
            let payload = format!("verify-{}-{seq}", id.0).into_bytes();
            Some(ep.probe(&mut mn.net, &payload))
        });
        self.probe_seq = seq;
        mn.recorder.inc("repair.passes", 1);
        mn.recorder.observe("repair.pass.goals", needing as f64);
        mn.recorder.event(
            mn.net.now().as_nanos(),
            TraceKind::RepairEnd {
                epoch: self.epoch,
                transactions: outcome.transactions as u64,
            },
        );
        mn.recorder.exit();
        report.repair = Some(outcome);
    }
}

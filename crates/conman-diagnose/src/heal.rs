//! Self-healing reconfiguration as a reconciler client.
//!
//! The Healer no longer hand-rolls teardown or fire-and-forget execution:
//! a repair is "mark the goal `Degraded` with the diagnosed suspects
//! excluded, tear the failed configuration down through the transactional
//! withdraw path, and drive candidate re-plans through two-phase
//! transactions until end-to-end probes verify one" — the same machinery
//! `ManagedNetwork::reconcile` uses for every stored goal.

use crate::report::{FaultReport, SuspectTarget};
use conman_core::nm::{ConnectivityGoal, Exclusion, GoalStatus, ModulePath, PathFinderLimits};
use conman_core::runtime::ManagedNetwork;
use mgmt_channel::ManagementChannel;
use netsim::device::DeviceId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// What a healing attempt did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealOutcome {
    /// Candidate replacement paths that avoided every suspect.
    pub candidates: usize,
    /// The replacement path that was executed, if any.
    pub replacement: Option<ModulePath>,
    /// Technology label of the replacement (e.g. `GRE-IP` after an MPLS
    /// core failure).
    pub replacement_label: Option<String>,
    /// Delete primitives committed while tearing down failed paths (the
    /// initial teardown plus any unverified candidates).
    pub teardown_primitives: usize,
    /// Did an end-to-end probe confirm the repair?
    pub verified: bool,
    /// When every candidate failed verification, the original path is
    /// re-executed as a best-effort rollback (a partially impaired path
    /// beats no path at all); this records that the rollback ran.
    pub original_restored: bool,
}

impl HealOutcome {
    /// Was the network actually repaired?
    pub fn healed(&self) -> bool {
        self.replacement.is_some() && self.verified
    }
}

/// Re-plans and re-configures a goal around diagnosed faults.
#[derive(Debug, Clone)]
pub struct Healer {
    /// Traversal limits for the re-planning path search.  Long chains need
    /// a larger step budget and a much smaller path budget than the
    /// defaults, so healing stays fast at 50 routers.
    pub limits: PathFinderLimits,
    /// How many candidate paths to try before giving up.
    pub max_attempts: usize,
}

impl Default for Healer {
    fn default() -> Self {
        Healer {
            limits: PathFinderLimits::default(),
            max_attempts: 3,
        }
    }
}

impl Healer {
    /// A healer with explicit search limits.
    pub fn with_limits(limits: PathFinderLimits) -> Self {
        Healer {
            limits,
            ..Default::default()
        }
    }

    /// The exclusions the path search must respect, derived from the
    /// report: suspected modules directly, every module of a suspected
    /// device, and suspected *links* as traversal-level link exclusions.
    ///
    /// This is the **single** suspect→exclusion mapping in the system: the
    /// operator-driven [`Healer`] and the control loop's
    /// [`AutonomicClient`](crate::AutonomicClient) both call it, so the two
    /// repair paths cannot drift apart on how a diagnosis constrains the
    /// re-plan.
    pub fn exclusions<C: ManagementChannel>(
        mn: &ManagedNetwork<C>,
        report: &FaultReport,
    ) -> BTreeSet<Exclusion> {
        let mut excluded = BTreeSet::new();
        for suspect in &report.suspects {
            match &suspect.target {
                SuspectTarget::Module(m) => {
                    excluded.insert(Exclusion::Module(m.clone()));
                }
                SuspectTarget::Device(d) => {
                    if let Some(mods) = mn.nm.abstractions.get(d) {
                        excluded.extend(mods.iter().map(|a| Exclusion::Module(a.name.clone())));
                    }
                }
                SuspectTarget::Link { a, b, .. } => {
                    excluded.insert(Exclusion::link(*a, *b));
                }
                SuspectTarget::Unlocated => {}
            }
        }
        excluded
    }

    /// Attempt a repair of a goal configured outside the store: register it
    /// with the reconciler ([`ManagedNetwork::adopt_goal`]) and run
    /// [`Self::repair`] against the stored record.  `heal`/`repair` is the
    /// operator one-shot flow (`tests/diagnosis.rs`, `examples/debugging.rs`,
    /// `experiments diagnosis`).  The autonomic control loop uses neither:
    /// [`AutonomicClient`](crate::AutonomicClient) calls only
    /// [`Self::exclusions`], and the loop repairs through `reconcile_with`.
    pub fn heal<C, P>(
        &self,
        mn: &mut ManagedNetwork<C>,
        goal: &ConnectivityGoal,
        failed: &ModulePath,
        report: &FaultReport,
        probe: &mut P,
    ) -> HealOutcome
    where
        C: ManagementChannel,
        P: FnMut(&mut ManagedNetwork<C>) -> bool,
    {
        let id = mn.adopt_goal(goal, failed);
        self.repair(mn, id, report, probe)
    }

    /// Attempt a repair of a *stored* goal: mark it degraded with the
    /// report's suspects excluded, tear the failed configuration down
    /// through the transactional teardown path, then execute candidate
    /// re-plans as two-phase transactions best-first, verifying each with
    /// end-to-end probes until one works (or `max_attempts` is exhausted).
    ///
    /// The Healer is a *client* of the goal store and the reconciler — the
    /// same machinery `reconcile()` and the autonomic loop drive — not a
    /// separate entry point with its own execution path.
    pub fn repair<C, P>(
        &self,
        mn: &mut ManagedNetwork<C>,
        id: conman_core::nm::GoalId,
        report: &FaultReport,
        probe: &mut P,
    ) -> HealOutcome
    where
        C: ManagementChannel,
        P: FnMut(&mut ManagedNetwork<C>) -> bool,
    {
        let empty = HealOutcome {
            candidates: 0,
            replacement: None,
            replacement_label: None,
            teardown_primitives: 0,
            verified: false,
            original_restored: false,
        };
        let Some(rec) = mn.goals.get(id) else {
            return empty;
        };
        let goal = rec.desired.clone();
        let Some(failed) = rec.applied().map(|a| a.path.clone()) else {
            return empty;
        };
        let failed = &failed;
        let goal = &goal;
        let excluded = Self::exclusions(mn, report);
        mn.recorder.inc("heal.repairs", 1);
        mn.recorder
            .observe("heal.exclusions", excluded.len() as f64);
        mn.goals.mark_degraded(id, excluded.clone());

        // Suspected links are excluded inside the traversal itself (no
        // post-filtering of complete paths): every candidate the finder
        // bothers to enumerate is already routable around the blamed links.
        let mut candidates: Vec<ModulePath> = mn
            .nm
            .find_paths_avoiding(goal, &excluded, self.limits)
            .into_iter()
            .filter(|p| p != failed)
            .collect();
        // Best first: the NM's usual metric — fewest pipes, then prefer
        // fast-forwarding modules.
        candidates.sort_by_key(|p| {
            let fast = p
                .steps
                .iter()
                .filter(|s| {
                    mn.nm
                        .abstraction_of(&s.module)
                        .map(|a| a.fast_forwarding)
                        .unwrap_or(false)
                })
                .count();
            (p.pipe_count(), usize::MAX - fast)
        });

        let mut outcome = HealOutcome {
            candidates: candidates.len(),
            replacement: None,
            replacement_label: None,
            teardown_primitives: 0,
            verified: false,
            original_restored: false,
        };
        mn.recorder
            .observe("heal.candidates", outcome.candidates as f64);
        if candidates.is_empty() {
            return outcome;
        }
        // Transactional teardown of the failed configuration, skipping
        // devices the report declared unresponsive (they would not answer —
        // and a rebooted device comes back with clean state).
        outcome.teardown_primitives = mn.teardown_goal(id, &report.unresponsive);

        for candidate in candidates.into_iter().take(self.max_attempts.max(1)) {
            let Ok(plan) = mn.plan_for_path(id, &candidate) else {
                // Pipe-id space exhausted (or the goal vanished): this
                // candidate cannot be numbered; try the next one.
                continue;
            };
            if mn.execute_plan(plan).is_err() {
                // The transaction rolled itself back; try the next one.
                continue;
            }
            // Verify inside the goal's flow-attribution window so the probe
            // burst stays attributable when other goals are active.
            mn.net.begin_flow_window(id.0);
            let verified = probe(mn) && probe(mn);
            mn.net.end_flow_window();
            if verified {
                // The repair verified: stop avoiding the suspects — the
                // same exclusion ageing the reconciler's verify step
                // performs, so a transiently blamed component can be
                // routed back over later.
                if let Some(rec) = mn.goals.get_mut(id) {
                    rec.excluded.clear();
                }
                outcome.replacement_label = Some(candidate.technology_label());
                outcome.replacement = Some(candidate);
                outcome.verified = true;
                mn.recorder.inc("heal.verified", 1);
                return outcome;
            }
            // This candidate did not carry traffic either: tear it down
            // before trying the next one.
            outcome.teardown_primitives += mn.teardown_goal(id, &[]);
        }
        // Nothing verified: roll the original configuration back.  Under a
        // partial impairment (a lossy but live link) the old path still
        // carries some traffic, which beats leaving the goal unconfigured.
        // A transaction cannot commit through an unresponsive device, so
        // only report the restore when it actually happened.
        let restored = mn
            .plan_for_path(id, failed)
            .is_ok_and(|plan| mn.execute_plan(plan).is_ok());
        // Park the goal as Failed: every suspect-avoiding candidate was
        // tried and carried no traffic, so a later probe-less reconcile()
        // must not tear the restored partial service down just to reinstall
        // one of those candidates.  `GoalStore::retry` re-arms it.
        if let Some(rec) = mn.goals.get_mut(id) {
            rec.status = GoalStatus::Failed;
            rec.excluded = excluded;
            rec.last_error =
                Some("no replacement path verified; original configuration restored".into());
        }
        if restored {
            mn.recorder.inc("heal.restored", 1);
        }
        outcome.original_restored = restored;
        outcome
    }
}

/// Convenience: the devices a report's suspects implicate (for display).
pub fn implicated_devices(report: &FaultReport) -> Vec<DeviceId> {
    let mut out = BTreeSet::new();
    for s in &report.suspects {
        match &s.target {
            SuspectTarget::Module(m) => {
                out.insert(m.device);
            }
            SuspectTarget::Device(d) => {
                out.insert(*d);
            }
            SuspectTarget::Link { a, b, .. } => {
                out.insert(*a);
                out.insert(*b);
            }
            SuspectTarget::Unlocated => {}
        }
    }
    out.into_iter().collect()
}

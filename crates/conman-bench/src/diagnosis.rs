//! The closed-loop diagnosis experiment: configure a VPN on an `n`-router
//! chain over a forced primary technology, inject a fault on the
//! deterministic clock, and let the `ControlLoop` detect it (health round),
//! localise it (`AutonomicClient`) and repair it (`reconcile_with`);
//! reports time-to-detect / time-to-repair in simulated time (the
//! wall-clock cost of localisation is `diagnose.localise_us` in
//! `benchmark/`).

use conman_core::nm::{GoalStatus, PathFinderLimits};
use conman_core::runtime::{ControlLoop, GoalEndpoints, LoopConfig, LoopDiagnosis};
use conman_diagnose::AutonomicClient;
use conman_modules::managed_chain;
use conman_obs::Blame;
use netsim::clock::SimDuration;
use netsim::fault::{apply_fault, FaultKind, Misconfiguration};

/// Which fault the closed loop injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagnosisScenario {
    /// Flush policy routing on the second core router: the configured
    /// path's transit state vanishes; the NM reroutes the broken segment
    /// over an MPLS LSP (which crosses the router in the label plane).
    /// Needs `n >= 4` — on shorter chains the tunnel endpoints are directly
    /// connected to every transit router and the main table still routes
    /// them.
    MidRouterRoutingLoss,
    /// Corrupt the GRE receive key at the egress router (needs a GRE
    /// primary path, so it only runs on chains small enough to enumerate
    /// one).
    EgressGreKeyCorruption,
    /// Cut the first core link — precisely localisable, not repairable on
    /// a chain.
    CoreLinkCut,
}

impl DiagnosisScenario {
    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            DiagnosisScenario::MidRouterRoutingLoss => "mid-router-routing-loss",
            DiagnosisScenario::EgressGreKeyCorruption => "egress-gre-key-corruption",
            DiagnosisScenario::CoreLinkCut => "core-link-cut",
        }
    }
}

/// What one closed-loop run measured.
#[derive(Debug, Clone)]
pub struct ClosedLoopReport {
    /// Chain size (core routers).
    pub n: usize,
    /// Scenario injected.
    pub scenario: DiagnosisScenario,
    /// Technology of the primary (pre-fault) path.
    pub primary_label: String,
    /// Simulated time from fault injection to the tick boundary whose
    /// health round degraded the goal.
    pub detect_sim: SimDuration,
    /// Simulated time from that boundary to the end of the tick whose
    /// repair pass verified (0 if unrepaired).
    pub repair_sim: SimDuration,
    /// The loop client's verdict on the detecting tick.
    pub diagnosis: LoopDiagnosis,
    /// Repair passes the loop ran until the goal settled.
    pub repair_passes: u64,
    /// Technology of the verified replacement path (`None` when the goal
    /// parked `Failed`).
    pub replacement_label: Option<String>,
}

impl ClosedLoopReport {
    /// Did the loop end with the goal `Active` on a verified path?
    pub fn healed(&self) -> bool {
        self.replacement_label.is_some()
    }

    /// One-line rendering for the experiments binary.
    pub fn render(&self) -> String {
        let suspect = match self.diagnosis.prime {
            Some((Blame::Module { device, module }, pct)) => {
                format!("module m{module} on dev {device} ({pct}%)")
            }
            Some((Blame::Link { a, b }, pct)) => format!("link dev {a} - dev {b} ({pct}%)"),
            Some((Blame::Device { device }, pct)) => format!("dev {device} ({pct}%)"),
            Some((Blame::Unlocated, pct)) => format!("unlocated ({pct}%)"),
            None => "none".to_string(),
        };
        format!(
            "n={:<3} {:<26} primary={:<16} detect={}  repair={} ({} pass(es))  healed={} via {:<18} suspect={}",
            self.n,
            self.scenario.name(),
            self.primary_label,
            self.detect_sim,
            self.repair_sim,
            self.repair_passes,
            self.healed(),
            self.replacement_label.as_deref().unwrap_or("-"),
            suspect,
        )
    }
}

/// Traversal limits that stay fast on long chains: enough steps for a
/// 3-per-router path, few enough complete paths to stop the exponential
/// MPLS-segment fan-out.
pub fn chain_limits(n: usize) -> PathFinderLimits {
    PathFinderLimits {
        max_steps: 3 * n + 16,
        max_paths: 32,
    }
}

/// Run the closed loop once and measure it: force the scenario's primary
/// path the operator way (`submit` + `plan_for_path` + `execute_plan`),
/// hand the goal to a [`ControlLoop`] with the [`AutonomicClient`], inject
/// the fault half a tick in, and let the loop detect, diagnose and repair.
pub fn closed_loop_run(n: usize, scenario: DiagnosisScenario) -> ClosedLoopReport {
    let mut t = managed_chain(n);
    t.discover();
    let goal = t.vpn_goal();
    let limits = chain_limits(n);
    t.mn.goals.limits = limits;

    // Primary path: for the GRE scenario force GRE-IP (only enumerable on
    // short chains); otherwise take the NM's choice among the bounded
    // enumeration (the direct IP-IP tunnel on chains).
    let paths = t.mn.nm.find_paths_with(&goal, limits);
    let path = match scenario {
        DiagnosisScenario::EgressGreKeyCorruption => paths
            .iter()
            .find(|p| p.technology_label() == "GRE-IP")
            .expect("GRE-IP path enumerable at this n")
            .clone(),
        DiagnosisScenario::MidRouterRoutingLoss => {
            assert!(n >= 4, "routing-loss scenario needs n >= 4");
            paths
                .iter()
                .find(|p| p.technology_label() == "IP-IP")
                .expect("the plain IP-IP tunnel is always enumerated first")
                .clone()
        }
        DiagnosisScenario::CoreLinkCut => {
            t.mn.nm.choose_path(&paths).expect("a path exists").clone()
        }
    };
    let primary_label = path.technology_label();
    let id = t.mn.submit(goal);
    let plan = t.mn.plan_for_path(id, &path).expect("primary path plans");
    t.mn.execute_plan(plan).expect("primary path commits");
    assert!(t.probe(), "primary path must carry traffic");

    let mut cl = ControlLoop::new(&t.mn, LoopConfig::default())
        .with_client(Box::new(AutonomicClient::default()));
    cl.track(
        id,
        GoalEndpoints {
            src: t.host1,
            dst: t.host2,
            dst_ip: "10.0.2.5".parse().expect("site-2 host address"),
        },
    );

    let kind = match scenario {
        DiagnosisScenario::MidRouterRoutingLoss => {
            FaultKind::Misconfigure(Misconfiguration::FlushPolicyRouting { device: t.core[1] })
        }
        DiagnosisScenario::EgressGreKeyCorruption => {
            FaultKind::Misconfigure(Misconfiguration::CorruptGreKey {
                device: *t.core.last().expect("non-empty chain"),
                delta: 11,
            })
        }
        DiagnosisScenario::CoreLinkCut => {
            FaultKind::LinkCut(t.core_link(0).expect("first core link"))
        }
    };
    t.mn.net.run_for(SimDuration::from_millis(50));
    let fault_at = t.mn.net.now();
    apply_fault(&mut t.mn.net, kind);

    // The next health round degrades the goal; the same tick diagnoses it
    // and runs the first repair pass.  Keep ticking until the goal settles
    // (`Active`, or `Failed` once the repair-attempt budget is spent).
    let detected = cl.tick(&mut t.mn);
    assert!(
        detected.degraded.contains(&id),
        "the first health round after the fault must degrade the goal"
    );
    let diagnosis = detected
        .diagnosed
        .first()
        .expect("the loop client diagnosed the degraded goal")
        .1
        .clone();
    let mut repair_passes = 1;
    while t.mn.goals.status(id).is_some_and(|s| s.needs_work()) {
        cl.tick(&mut t.mn);
        repair_passes += 1;
    }
    let repaired_at = t.mn.net.now();
    let replacement_label =
        t.mn.goals
            .get(id)
            .filter(|r| r.status == GoalStatus::Active)
            .and_then(|r| r.applied())
            .map(|a| a.path.technology_label());
    let healed = replacement_label.is_some();
    assert!(!healed || t.probe(), "a healed goal must carry traffic");

    let report = ClosedLoopReport {
        n,
        scenario,
        primary_label,
        detect_sim: detected.at.duration_since(fault_at),
        repair_sim: if healed {
            repaired_at.duration_since(detected.at)
        } else {
            SimDuration::ZERO
        },
        diagnosis,
        repair_passes,
        replacement_label,
    };
    assert_eq!(t.mn.audit(), [], "the devices hold what the goals claim");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flagship scaling scenario detects, localises and repairs on a
    /// short chain.
    #[test]
    fn closed_loop_heals_routing_loss_on_a_short_chain() {
        let r = closed_loop_run(4, DiagnosisScenario::MidRouterRoutingLoss);
        assert!(r.healed(), "{r:#?}");
        assert!(r.diagnosis.blamed.is_some());
        assert!(r.detect_sim > SimDuration::ZERO);
        assert!(r.repair_sim > SimDuration::ZERO);
        assert_eq!(r.repair_passes, 1);
    }

    /// The link-cut scenario localises precisely and reports honest
    /// non-repairability.
    #[test]
    fn closed_loop_localises_the_unrepairable_cut() {
        let r = closed_loop_run(3, DiagnosisScenario::CoreLinkCut);
        assert!(!r.healed());
        assert!(r.diagnosis.blamed_link.is_some(), "{r:#?}");
        assert_eq!(
            r.repair_passes,
            u64::from(conman_core::nm::GoalStore::MAX_REPAIR_ATTEMPTS),
            "reinstall-through burns the whole repair budget"
        );
    }
}

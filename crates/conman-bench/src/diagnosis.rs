//! The closed-loop diagnosis experiment: configure a VPN on an `n`-router
//! chain, inject a fault on the deterministic clock, detect it from the
//! periodic telemetry loop, localise it with the `Diagnoser`, repair it with
//! the `Healer`, and report time-to-detect / time-to-repair in simulated
//! time (the wall-clock cost of localisation is `diagnose.localise_us` in
//! `benchmark/`).

use conman_core::nm::PathFinderLimits;
use conman_diagnose::{Diagnoser, FaultReport, HealOutcome, Healer, TelemetryCollector};
use conman_modules::managed_chain;
use netsim::clock::SimDuration;
use netsim::fault::{FaultInjector, FaultKind, FaultPlan, Misconfiguration};

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
    /// Simulated time from fault injection to failed probe.
    pub detect_sim: SimDuration,
    /// Simulated time from detection to verified repair (0 if unrepaired).
    pub repair_sim: SimDuration,
    /// The diagnosis verdict.
    pub report: FaultReport,
    /// The healing outcome.
    pub heal: HealOutcome,
    /// Telemetry rounds taken before detection.
    pub telemetry_rounds: usize,
}

impl ClosedLoopReport {
    /// One-line rendering for the experiments binary.
    pub fn render(&self) -> String {
        let suspect = self
            .report
            .prime_suspect()
            .map(|s| format!("{:?} ({}%)", s.target, s.confidence_pct))
            .unwrap_or_else(|| "none".to_string());
        format!(
            "n={:<3} {:<26} primary={:<16} detect={} ({} rounds)  repair={}  healed={} via {:<18} suspect={}",
            self.n,
            self.scenario.name(),
            self.primary_label,
            self.detect_sim,
            self.telemetry_rounds,
            self.repair_sim,
            self.heal.healed(),
            self.heal.replacement_label.as_deref().unwrap_or("-"),
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

/// Run the closed loop once and measure it.
pub fn closed_loop_run(n: usize, scenario: DiagnosisScenario) -> ClosedLoopReport {
    let mut t = managed_chain(n);
    t.discover();
    let goal = t.vpn_goal();
    let limits = chain_limits(n);

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
    t.mn.execute_path(&path, &goal);
    assert!(t.probe(), "primary path must carry traffic");

    // Fault plan on the deterministic clock, due shortly after "now".
    let fault_at = t.mn.net.now() + SimDuration::from_millis(50);
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
    let mut injector = FaultInjector::new(FaultPlan::new().at(fault_at, kind));

    // Detection loop: periodic telemetry sampling plus one watchdog probe
    // per round.
    let period = SimDuration::from_millis(100);
    let mut collector = TelemetryCollector::new(path.devices(), period);
    collector.sample(&mut t.mn); // baseline round
    let mut probe = t.probe_fn();
    let mut rounds = 0usize;
    let detect_sim;
    loop {
        t.mn.net.run_for(period);
        injector.apply_due(&mut t.mn.net);
        collector.tick(&mut t.mn);
        rounds += 1;
        if !probe(&mut t.mn) {
            detect_sim = t.mn.net.now().duration_since(fault_at);
            break;
        }
        assert!(rounds < 1000, "fault was never detected");
    }
    let detected_at = t.mn.net.now();

    // Localise and repair.
    let diagnoser = Diagnoser::default();
    let report = diagnoser.diagnose(&mut t.mn, &path, &mut probe);
    let healer = Healer::with_limits(limits);
    let heal = healer.heal(&mut t.mn, &goal, &path, &report, &mut probe);
    let repair_sim = if heal.healed() {
        t.mn.net.now().duration_since(detected_at)
    } else {
        SimDuration::ZERO
    };

    ClosedLoopReport {
        n,
        scenario,
        primary_label,
        detect_sim,
        repair_sim,
        report,
        heal,
        telemetry_rounds: collector.rounds.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flagship scaling scenario detects, localises and repairs on a
    /// short chain.
    #[test]
    fn closed_loop_heals_routing_loss_on_a_short_chain() {
        let r = closed_loop_run(4, DiagnosisScenario::MidRouterRoutingLoss);
        assert!(!r.report.healthy);
        assert!(r.heal.healed(), "{:#?}", r.heal);
        assert!(r.detect_sim > SimDuration::ZERO);
        assert!(r.repair_sim > SimDuration::ZERO);
        assert!(r.telemetry_rounds >= 2);
    }

    /// The link-cut scenario localises precisely and reports honest
    /// non-repairability.
    #[test]
    fn closed_loop_localises_the_unrepairable_cut() {
        let r = closed_loop_run(3, DiagnosisScenario::CoreLinkCut);
        assert!(!r.report.healthy);
        assert!(!r.heal.healed());
        assert!(r.report.prime_suspect().is_some());
    }
}

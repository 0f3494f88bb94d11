//! The diagnosis stage of the autonomic control loop.
//!
//! [`AutonomicClient`] plugs the `conman-diagnose` machinery into
//! `conman-core`'s [`ControlLoop`](conman_core::runtime::ControlLoop):
//! the [`Diagnoser`] localises a degraded goal from per-goal flow deltas
//! *while the other goals keep pushing traffic* (background closure), and
//! the [`Healer`]'s suspect analysis turns the report into the module
//! exclusions the loop's batched re-plan must respect.  Diagnoser and
//! Healer are thereby clients of the loop — the loop decides *when* to
//! diagnose and *how* to repair (one batched reconcile pass per tick);
//! this module only answers *where the fault is*.

use crate::diagnose::Diagnoser;
use crate::heal::Healer;
use crate::report::SuspectTarget;
use conman_core::nm::GoalId;
use conman_core::runtime::{GoalEndpoints, LoopClient, LoopDiagnosis, ManagedNetwork};
use mgmt_channel::ManagementChannel;

/// The loop's diagnosis client: flow-delta localisation with live
/// background traffic, suspects mapped to plan exclusions.
#[derive(Debug, Clone, Copy, Default)]
pub struct AutonomicClient {
    /// The diagnoser template (probe count etc.); its flow tag is set per
    /// goal on every call.
    pub diagnoser: Diagnoser,
}

impl AutonomicClient {
    /// A client whose diagnoser sends `probes` probes per localisation.
    pub fn new(probes: u32) -> Self {
        AutonomicClient {
            diagnoser: Diagnoser::new(probes),
        }
    }
}

impl<C: ManagementChannel> LoopClient<C> for AutonomicClient {
    fn localise(
        &mut self,
        mn: &mut ManagedNetwork<C>,
        goal: GoalId,
        endpoints: GoalEndpoints,
        background: &[(GoalId, GoalEndpoints)],
    ) -> LoopDiagnosis {
        let Some(path) = mn
            .goals
            .get(goal)
            .and_then(|r| r.applied())
            .map(|a| a.path.clone())
        else {
            return LoopDiagnosis {
                summary: "no applied path to diagnose".into(),
                ..Default::default()
            };
        };
        let diagnoser = self.diagnoser.for_goal(goal);
        let mut seq = 0u64;
        let mut probe = |mn: &mut ManagedNetwork<C>| {
            seq += 1;
            endpoints.probe(&mut mn.net, format!("diag-{}-{seq}", goal.0).as_bytes())
        };
        // Between the diagnosed goal's probes, every other live goal pushes
        // one datagram inside its *own* flow window: the measurement window
        // carries realistic cross-traffic, and only the per-goal
        // attribution keeps the frontier walk pointed at the right device.
        let others: Vec<(GoalId, GoalEndpoints)> = background.to_vec();
        let mut bg_seq = 0u64;
        let mut background = move |mn: &mut ManagedNetwork<C>| {
            for (g, ep) in &others {
                bg_seq += 1;
                mn.net.begin_flow_window(g.0);
                ep.probe(&mut mn.net, format!("bg-{}-{bg_seq}", g.0).as_bytes());
                mn.net.end_flow_window();
            }
        };
        let report = diagnoser.diagnose_with_background(mn, &path, &mut probe, &mut background);
        // The one shared suspect→exclusion mapping (Healer::exclusions):
        // blamed links become traversal-level link exclusions, so the
        // loop's batched repair pass reroutes around them in one epoch.
        let excluded = Healer::exclusions(mn, &report);
        let blamed = report.prime_suspect().and_then(|s| match &s.target {
            SuspectTarget::Module(m) => Some(m.device),
            SuspectTarget::Device(d) => Some(*d),
            SuspectTarget::Link { a, .. } => Some(*a),
            SuspectTarget::Unlocated => None,
        });
        let blamed_link = report.suspects.iter().find_map(|s| match &s.target {
            SuspectTarget::Link { a, b, .. } => Some(if a <= b { (*a, *b) } else { (*b, *a) }),
            _ => None,
        });
        let summary = report
            .prime_suspect()
            .map(|s| format!("{:?} ({}%)", s.target, s.confidence_pct))
            .unwrap_or_else(|| "healthy".to_string());
        LoopDiagnosis {
            excluded,
            unresponsive: report.unresponsive.clone(),
            blamed,
            blamed_link,
            summary,
        }
    }
}

//! The diagnosis stage of the autonomic control loop.
//!
//! [`AutonomicClient`] plugs the `conman-diagnose` machinery into
//! `conman-core`'s [`ControlLoop`](conman_core::runtime::ControlLoop):
//! the [`Diagnoser`] measures a tick's degraded goals together — one
//! counter poll of their path devices before their probe bursts and one
//! after, *while the other goals keep pushing traffic* (background closure)
//! — and localises each goal from its own flow deltas; the [`Healer`]'s
//! suspect analysis turns each report into the module exclusions the
//! loop's batched re-plan must respect.  Diagnoser and Healer are thereby
//! clients of the loop — the loop decides *when* to diagnose and *how* to
//! repair (one batched reconcile pass per tick); this module only answers
//! *where the fault is*.

use crate::diagnose::Diagnoser;
use crate::heal::Healer;
use crate::report::{FaultReport, SuspectTarget};
use conman_core::nm::{GoalId, ModulePath};
use conman_core::runtime::{GoalEndpoints, LoopClient, LoopDiagnosis, ManagedNetwork};
use conman_obs::TraceKind;
use mgmt_channel::ManagementChannel;

/// The loop's diagnosis client: flow-delta localisation with live
/// background traffic, suspects mapped to plan exclusions.
#[derive(Debug, Clone, Copy, Default)]
pub struct AutonomicClient {
    /// The diagnoser template (probe count etc.); each goal's probes run
    /// under its own id as the flow tag.
    pub diagnoser: Diagnoser,
}

impl AutonomicClient {
    /// A client whose diagnoser sends `probes` probes per goal.
    pub fn new(probes: u32) -> Self {
        AutonomicClient {
            diagnoser: Diagnoser::new(probes),
        }
    }
}

impl<C: ManagementChannel> LoopClient<C> for AutonomicClient {
    /// Goals without an applied plan have no path to walk and get no
    /// verdict.
    fn localise_all(
        &mut self,
        mn: &mut ManagedNetwork<C>,
        goals: &[(GoalId, GoalEndpoints)],
        background: &[(GoalId, GoalEndpoints)],
    ) -> Vec<(GoalId, LoopDiagnosis)> {
        let targets: Vec<(GoalId, GoalEndpoints, ModulePath)> = goals
            .iter()
            .filter_map(|&(goal, ep)| Some((goal, ep, mn.goals.get(goal)?.applied()?.path.clone())))
            .collect();
        if targets.is_empty() {
            return Vec::new();
        }
        let tagged: Vec<(u64, &ModulePath)> = targets.iter().map(|(g, _, p)| (g.0, p)).collect();
        let mut seqs = vec![0u64; targets.len()];
        let mut probe = |mn: &mut ManagedNetwork<C>, i: usize| {
            let (goal, ep, _) = &targets[i];
            seqs[i] += 1;
            ep.probe(
                &mut mn.net,
                format!("diag-{}-{}", goal.0, seqs[i]).as_bytes(),
            )
        };
        // After every round of the diagnosed goals' probes, every other live
        // goal pushes one datagram inside its *own* flow window: the
        // measurement window carries realistic cross-traffic, and only the
        // per-goal attribution keeps each frontier walk pointed at the right
        // device.
        let mut bg_seq = 0u64;
        let mut traffic = |mn: &mut ManagedNetwork<C>| {
            for (g, ep) in background {
                bg_seq += 1;
                mn.net.begin_flow_window(g.0);
                ep.probe(&mut mn.net, format!("bg-{}-{bg_seq}", g.0).as_bytes());
                mn.net.end_flow_window();
            }
        };
        let diagnoser = self.diagnoser;
        let measured = diagnoser.measure(mn, &tagged, &mut probe, &mut traffic);
        // Each goal's walk sits inside its own span, so its FrontierHop and
        // Suspect events stay attributable from the journal alone.
        targets
            .iter()
            .enumerate()
            .map(|(i, &(goal, _, _))| {
                mn.recorder.enter(
                    mn.net.now().as_nanos(),
                    TraceKind::DiagnoseStart { goal: goal.0 },
                );
                let diagnosis = verdict(mn, &diagnoser.walk(mn, &measured, i));
                mn.recorder.event(
                    mn.net.now().as_nanos(),
                    TraceKind::Diagnosed {
                        goal: goal.0,
                        blamed_device: diagnosis.blamed.map(|d| d.as_u64()),
                        blamed_link: diagnosis.blamed_link.map(|(a, b)| (a.as_u64(), b.as_u64())),
                        exclusions: diagnosis.excluded.len() as u64,
                        summary: diagnosis.summary.clone(),
                    },
                );
                mn.recorder.exit();
                (goal, diagnosis)
            })
            .collect()
    }
}

/// What the loop needs from one goal's fault report.
fn verdict<C: ManagementChannel>(mn: &ManagedNetwork<C>, report: &FaultReport) -> LoopDiagnosis {
    // The one shared suspect→exclusion mapping (Healer::exclusions):
    // blamed links become traversal-level link exclusions, so the loop's
    // batched repair pass reroutes around them in one epoch.
    let excluded = Healer::exclusions(mn, report);
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
